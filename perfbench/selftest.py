"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the generator is deterministic per seed and that its files
validate, that the output check is not vacuous (a chain with one altered
coefficient, or a non-monic one, is rejected), and that tracing leaves the
emitted bytes unchanged, repeats its exact counters and restores every
patched name. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import check
import pipeline
import run as bench
import spans
import workloads


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def generator_is_deterministic(tmp: Path, cli) -> None:
    for name, wl in workloads.WORKLOADS.items():
        a = workloads.generate(wl, 7, tmp / "a")
        b = workloads.generate(wl, 7, tmp / "b")
        c = workloads.generate(wl, 8, tmp / "c")
        same = [x.read_bytes() == y.read_bytes() for x, y in zip(a, b)]
        expect(len(a) == len(b) and all(same), f"{name}: seed 7 twice, same files")
        expect(any(x.read_bytes() != z.read_bytes() for x, z in zip(a, c)),
               f"{name}: seeds 7 and 8 give different files")
        for path in c:
            cli.branch_from_file(cli.load_curve(path))   # raises if invalid
        expect(True, f"{name}: every seed-8 file passes validate_branch")


def _altered(doc: dict, level: int, edit) -> str:
    doc = json.loads(json.dumps(doc))
    edit(doc["levels"][level]["f"])
    return json.dumps(doc, indent=2)


def check_is_not_vacuous(tmp: Path, cli, implicitize) -> None:
    paths = workloads.generate(workloads.WORKLOADS["small-batch"], 1, tmp / "chk")
    picked = paths[30:60:6]
    rng = random.Random(0)
    for path in picked:
        text, _ = pipeline.run_curve(cli, implicitize, path, 12)
        curve = path.read_text()
        expect(not check.check_document(curve, text, rng),
               f"{path.name}: emitted chain passes the check")
        doc = json.loads(text)
        for i, level in enumerate(doc["levels"]):
            e_i = level["e"]
            victims = [j for j, t in enumerate(level["f"])
                       if (t["x"], t["y"]) != (0, e_i)]

            def bump(f, j=victims[0]):
                f[j]["c"] = str(Fraction(f[j]["c"]) + 1)

            def unmonic(f):
                for t in f:
                    if (t["x"], t["y"]) == (0, e_i):
                        t["c"] = "2"

            for label, edit in (("one coefficient altered", bump),
                                ("apex coefficient 2", unmonic)):
                found = check.check_document(curve, _altered(doc, i, edit), rng)
                expect(bool(found), f"{path.name} level {i + 1}: {label} is "
                                    f"rejected ({found[0] if found else '-'})")


def tracing_is_transparent(tmp: Path, cli, implicitize) -> None:
    paths = workloads.generate(workloads.WORKLOADS["small-batch"], 3, tmp / "tr")
    curves = [bench.Curve(p, 12) for p in paths[::10]]
    owners = {f"curvelift.{m}" for m, _, _ in spans.ENTRY_POINTS}
    owners = [sys.modules[m] for m in owners] + [
        getattr(sys.modules[f"curvelift.{m}"], attr.split(".")[0])
        for m, attr, _ in spans.ENTRY_POINTS if "." in attr]
    originals = {owner: dict(vars(owner)) for owner in owners}
    run = bench.Run(cli, implicitize, curves, 3)
    tracer = spans.Tracer()
    first = bench.paired_pass(run, tracer)
    second = bench.paired_pass(run, tracer)
    expect(run.failed == 0 and not run.problems,
           f"{len(curves)} curves traced: output byte-identical to untraced")
    expect(first[1] == second[1], "exact counters repeat between two passes")
    expect(first[1]["algebra.uni_mul_term_pairs"] > 0
           and first[1]["polygon.slice_points"] > 0, "counters are live")
    restored = all(vars(owner).get(k) is v
                   for owner, names in originals.items() for k, v in names.items())
    expect(restored, "uninstall restores every patched name")
    times = first[0]
    share = sum(times[f"{l}.self_s"] for l in bench.LAYERS) / times["trace.wall_s"]
    expect(share >= 1 - bench.ACCOUNTED_TOLERANCE,
           f"layer self times cover {share:.3f} of traced wall time")


def main() -> int:
    cli, implicitize = pipeline.load_program()
    bench.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
        generator_is_deterministic(Path(tmp), cli)
        check_is_not_vacuous(Path(tmp), cli, implicitize)
        tracing_is_transparent(Path(tmp), cli, implicitize)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
