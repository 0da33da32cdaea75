"""Wider bounded-exhaustive sweep, outside tier-1: every characteristic shape
with k <= 32 and characteristic exponents in (k, 3k], 14028 branches and
38728 levels, under the three patterns of ``test_sweep`` and a seeded
rational one whose coefficients have 6-digit numerators and denominators.
Each chain must certify with the norm oracle at every level (oracle bound
32) and match it, and a tailed chain's document must rebuild and
re-certify. The name keeps pytest from collecting it.

    PYTHONPATH=src python tests/sweep_wide.py [--cap SECONDS]

prints, per pattern, the branches run, their levels, the residual repacks
and the failures, and exits 1 on any failure. A pattern stops at the first
branch that starts after ``--cap`` seconds of it (default 1800), and its
line says so. One process, no threads.
"""

import argparse
import random
import sys
import time
import traceback
from fractions import Fraction

from curvelift import certify, implicitize_all, validate_branch
from curvelift.algebra import Residual
from curvelift.cli import CurveFile, chain_to_doc, doc_rebuild
from curvelift.implicitize import chain_from_polynomials
from test_sweep import shapes, signed_two_thirds, tailed, unit

ORACLE_BOUND = 32
SHAPES = [(k, chars) for k in range(2, 33) for chars in shapes(k, 3 * k)]


def six_digit_rationals():
    """A pattern drawing each coefficient p/q, with p and q uniform in
    [1, 10**6] and a random sign, from one generator seeded 0x5EED, in
    shape order."""
    rng = random.Random(0x5EED)

    def pattern(chars):
        return [Fraction(rng.choice((1, -1)) * rng.randint(1, 10**6),
                         rng.randint(1, 10**6)) for _ in chars]
    return pattern


def certified(chain) -> bool:
    return chain.ok and all(c.oracle == "match" for c in chain.certificates)


def check_terms(k, terms) -> bool:
    return certified(implicitize_all(validate_branch(k, terms), oracle_bound=ORACLE_BOUND))


def check_tailed(k, terms) -> bool:
    cf = CurveFile(k=k, terms=sorted(terms.items()))
    chain = implicitize_all(validate_branch(k, terms), oracle_bound=ORACLE_BOUND)
    branch, fs = doc_rebuild(chain_to_doc(cf, chain))
    rebuilt = certify(chain_from_polynomials(branch, fs), oracle_bound=ORACLE_BOUND)
    return certified(chain) and rebuilt.ok and rebuilt.fs == chain.fs


def sweep(name, terms_of, check, cap, repacks):
    """Run ``check`` on each shape's terms ``terms_of(k, chars)`` until
    ``cap`` seconds have passed; print the counts and return the failures."""
    start = time.perf_counter()
    branches = levels = failures = 0
    before = repacks[0]
    capped = False
    for k, chars in SHAPES:
        if time.perf_counter() - start > cap:
            capped = True
            break
        terms = terms_of(k, chars)
        try:
            ok = check(k, terms)
        except Exception:               # a crash is a failure too
            ok = False
            print(f"  {name}: k={k} {terms}:")
            traceback.print_exc(file=sys.stdout)
        else:
            if not ok:
                print(f"  {name}: k={k} {terms}: not certified")
        branches += 1
        levels += len(chars)
        failures += not ok
    print(f"{name}: {branches}/{len(SHAPES)} branches, {levels} levels, "
          f"{repacks[0] - before} repacks, {failures} failures, "
          f"{time.perf_counter() - start:.1f} s" + (" (capped)" if capped else ""))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=float, default=1800.0,
                        help="seconds per pattern before it stops (default 1800)")
    cap = parser.parse_args(argv).cap
    repacks = [0]
    repack = Residual._repack

    def counted(self, grow):
        repacks[0] += 1
        repack(self, grow)

    Residual._repack = counted

    def coefficients(pattern):
        return lambda k, chars: dict(zip(chars, pattern(chars)))

    rationals = six_digit_rationals()
    patterns = [("unit", coefficients(unit), check_terms),
                ("signed_two_thirds", coefficients(signed_two_thirds), check_terms),
                ("tailed", tailed, check_tailed),
                ("six_digit_rationals", coefficients(rationals), check_terms)]
    failures = sum(sweep(name, terms_of, check, cap, repacks)
                   for name, terms_of, check in patterns)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
