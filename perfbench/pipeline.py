"""The measured path for one curve: the calls of ``curvelift verify FILE --json``.

    load_curve -> branch_from_file -> implicitize_all(verify=False)
      -> certify -> chain_to_doc -> json.dumps

Run as a script it is the set-up probe: a fresh interpreter imports the
program from ``src/`` and finishes one curve, untimed by itself.

    python3 perfbench/pipeline.py CURVE_FILE ORACLE_BOUND
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import curvelift from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "curvelift" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvelift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvelift
    from curvelift import cli, implicitize
    if Path(curvelift.__file__).resolve().parent != SRC / "curvelift":
        raise SystemExit(f"error: imported curvelift from {curvelift.__file__}")
    return cli, implicitize


def emit(doc: dict) -> str:
    """The JSON text ``verify --json`` prints."""
    return json.dumps(doc, indent=2)


def run_curve(cli, implicitize, path, oracle_bound: int):
    """(emitted JSON text, certified chain) for one curve file."""
    cf = cli.load_curve(path)
    branch = cli.branch_from_file(cf)
    chain = implicitize.implicitize_all(branch, verify=False)
    chain = implicitize.certify(chain, oracle_bound=oracle_bound)
    return emit(cli.chain_to_doc(cf, chain)), chain


if __name__ == "__main__":
    cli, implicitize = load_program()
    _, chain = run_curve(cli, implicitize, sys.argv[1], int(sys.argv[2]))
    sys.exit(0 if chain.ok else 1)
