"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; the
shared corpus fixture computes every chain exactly once per session.
"""

import json
import time
from fractions import Fraction

import property_suites as ps
from curvelift import (BiPoly, extract_characteristics, generators,
                       resultant_implicitize, truncation)
from curvelift.cli import main

F1 = BiPoly({(0, 2): 1, (3, 0): -1})
DELTA2 = BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_semigroup_regression():
    t0 = time.perf_counter()
    cd = extract_characteristics(12, {18, 20, 23})
    ok = generators(cd, 2).generators_list() == [6, 9, 19]
    ok &= generators(cd, 3).generators_list() == [12, 18, 38, 117]
    cd2 = extract_characteristics(6, {9, 16})
    ok &= generators(cd2, 1).generators_list() == [2, 3]
    ok &= generators(cd2, 2).generators_list() == [6, 9, 25]
    cd3 = extract_characteristics(6, {8, 9})
    ok &= generators(cd3, 2).generators_list() == [6, 8, 25]
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report(1, ok, f"semigroup generator regression, exact match ({dt:.3f}s < 1s)")


def test_criterion_2_reference_end_to_end(branch12, chain12):
    t0 = time.perf_counter()
    f1, f2 = chain12.fs[0], chain12.fs[1]
    ok = f1 == F1
    ok &= f2 == F1 ** 3 + DELTA2
    ok &= truncation(branch12, 2).valuation(f1) == 19
    ok &= truncation(branch12, 3).valuation(f2) == 117
    # division by the monic f_1 is unique: DELTA2 = q*f_1 + r, deg_y(r) < 2
    q, r = BiPoly({(5, 1): -2}), BiPoly({(8, 1): -8, (10, 0): 1})
    ok &= DELTA2 == q * f1 + r and r.deg_y() < 2
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    report(2, ok, f"k=12 branch end-to-end: f_1, f_2, valuations 19/117, "
                  f"division quotient/remainder ({dt:.3f}s < 5s)")


def test_criterion_3_certificate_suite(corpus_chains):
    total = sum(secs for _, _, secs in corpus_chains.values())
    names = set(corpus_chains)
    ok = {"paper-ex1", "paper-ex2", "paper-ex3", "cusp", "tails-weighted"} <= names
    ok &= len(corpus_chains) >= 10
    for name, (branch, chain, _) in corpus_chains.items():
        chain_ok = chain.ok and chain.table is not None and chain.table.ok
        s = branch.cd.s
        rows = {(r.i, r.j) for r in chain.table.rows}
        chain_ok &= rows == {(i, j) for j in range(1, s + 1)
                             for i in range(1, j + 1)}
        ok &= chain_ok
        if not chain_ok:
            print(f"  certificate failure in corpus branch {name}")
    ok &= total < 900.0
    report(3, ok, f"theorem certificates over {len(corpus_chains)} branches "
                  f"({total:.1f}s < 900s)")


def test_criterion_4_oracle_equivalence(corpus_chains):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for name, (branch, chain, _) in corpus_chains.items():
        for i in range(1, branch.cd.s + 1):
            if branch.cd.es[i] > 12:
                continue
            res = resultant_implicitize(truncation(branch, i))
            good = res == chain.fs[i - 1]
            ok &= good
            checked += 1
            if not good:
                print(f"  oracle mismatch: {name} level {i}")
    dt = time.perf_counter() - t0
    ok &= checked >= 10 and dt < 120.0
    report(4, ok, f"resultant oracle equality on {checked} truncations "
                  f"({dt:.1f}s < 120s)")


def test_criterion_5_property_suites():
    ok = True
    for name, suite in ps.ALL_SUITES:
        try:
            suite(cases=200 if "naive" not in name else 250)
        except AssertionError as exc:
            ok = False
            print(f"  property suite failed: {name}: {exc}")
    report(5, ok, f"{len(ps.ALL_SUITES)} property suites at >= 200 cases each")


def test_criterion_6_stress_instance_and_bench(corpus_chains, capsys, tmp_path):
    import shutil
    from pathlib import Path

    branch, chain, secs = corpus_chains["paper-ex3"]
    ok = branch.cd.lambdas == (Fraction(6, 5), Fraction(3, 2), Fraction(5, 3))
    ok &= chain.fs[2].deg_y() == 30 and chain.ok
    ok &= secs < 600.0
    # the comparable artifact: per-level iteration counts and wall times
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for f in ("cusp.curve", "paper-ex3.curve"):
        shutil.copy(corpus / f, bench_dir / f)
    code = main(["bench", str(bench_dir), "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    ok &= code == 0
    by_name = {entry["name"]: entry for entry in doc["corpus"]}
    ok &= "paper-ex3" in by_name
    levels = by_name["paper-ex3"]["levels"]
    ok &= [lv["level"] for lv in levels] == [1, 2, 3]
    ok &= all("iterations" in lv and "seconds" in lv for lv in levels)
    with capsys.disabled():
        report(6, ok, f"e=30 instance in {secs:.1f}s < 600s; bench emits "
                      f"per-level iterations and wall times")
