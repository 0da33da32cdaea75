"""The byte contract without pytest: recompute every ``verify --json``
digest that ``test_cli`` pins and compare. The digests are read out of
``tests/test_cli.py`` (``VERIFY_JSON_SHA256``, one per corpus curve, and
``WORKLOAD_VERIFY_JSON_SHA256``, one per benchmark workload over its seed-1
curves), so they stay in one place. The name keeps pytest from collecting
it, and it needs nothing beyond the standard library, so it runs under any
supported CPython:

    PYTHONPATH=src python3 tests/bytes_contract.py

prints one ``ok`` or ``MISMATCH`` line per digest and exits 1 on any
mismatch.
"""

import ast
import contextlib
import hashlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

from curvelift.cli import branch_from_file, load_curve, main as cli_main
from curvelift.implicitize import DEFAULT_ORACLE_BOUND

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def pinned_digests() -> tuple[dict[str, str], dict[str, str]]:
    """(corpus file name -> digest, workload name -> digest), as pinned."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    return (ast.literal_eval(found["VERIFY_JSON_SHA256"]),
            ast.literal_eval(found["WORKLOAD_VERIFY_JSON_SHA256"]))


def verify_json(path: Path, *flags: str) -> bytes:
    """The stdout of ``curvelift verify PATH --json FLAGS``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["verify", str(path), "--json", *flags])
    if code != 0:
        raise SystemExit(f"verify {path} exited {code}")
    return out.getvalue().encode()


def workload_digest(w, generate, out_dir: Path) -> str:
    """The digest of one workload's seed-1 documents, concatenated in run
    order, each at the oracle bound the benchmark uses."""
    h = hashlib.sha256()
    for path in generate(w, 1, out_dir):
        es = branch_from_file(load_curve(path)).cd.es
        bound = es[-1] if w.oracle_at_top else DEFAULT_ORACLE_BOUND
        h.update(verify_json(path, "--oracle-bound", str(bound)))
    return h.hexdigest()


def main() -> int:
    corpus, workloads = pinned_digests()
    results = [(name, hashlib.sha256(verify_json(CORPUS / name)).hexdigest(), want)
               for name, want in corpus.items()]
    ns = runpy.run_path(str(WORKLOADS))
    with tempfile.TemporaryDirectory() as tmp:
        for name, want in workloads.items():
            got = workload_digest(ns["WORKLOADS"][name], ns["generate"], Path(tmp) / name)
            results.append((f"workload {name}", got, want))
    for name, got, want in results:
        print(f"{'ok' if got == want else 'MISMATCH'} {name} {got}")
    print(f"CPython {sys.version.split()[0]}")
    return 0 if all(got == want for _, got, want in results) else 1


if __name__ == "__main__":
    sys.exit(main())
