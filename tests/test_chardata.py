import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvelift import BranchInput, extract_characteristics, in_lattice, validate_branch
from curvelift.chardata import check_tail_split, split_tails
from curvelift.errors import (EmptySupportError, IntegerExponentError,
                              NonPrimitiveError, TailOrderViolationError,
                              TailOutsideLatticeError)
from curvelift.algebra import UniPoly
from helpers import rand_branch


def F(a, b=1):
    return Fraction(a, b)


def test_extract_reference_chain():
    cd = extract_characteristics(12, {18, 20, 23})
    assert cd.lambdas == (F(3, 2), F(5, 3), F(23, 12))
    assert cd.ks == (2, 3, 2)
    assert cd.es == (1, 2, 6, 12)


def test_extract_single_exponent():
    cd = extract_characteristics(2, {3})
    assert cd.lambdas == (F(3, 2),) and cd.ks == (2,) and cd.es == (1, 2)


def test_extract_characteristic_689():
    cd = extract_characteristics(6, {8, 9})
    assert cd.lambdas == (F(4, 3), F(3, 2)) and cd.ks == (3, 2)


def test_extract_with_inner_lattice_terms():
    cd = extract_characteristics(6, {9, 15, 16, 20})
    assert cd.lambdas == (F(3, 2), F(8, 3)) and cd.ks == (2, 3)


def test_extract_errors():
    with pytest.raises(EmptySupportError):
        extract_characteristics(4, set())
    with pytest.raises(NonPrimitiveError):
        extract_characteristics(4, {6, 10})


def test_in_lattice_reference_points():
    cd = extract_characteristics(12, {18, 20, 23})
    assert not in_lattice(F(5, 3), 1, cd)          # forced by k_2 = 3 > 1
    cd2 = extract_characteristics(6, {9, 15, 16, 20})
    assert in_lattice(F(10, 3), 2, cd2)            # 10/3 = 2*(8/3) - 2
    assert in_lattice(7, 0, cd) and in_lattice(7, 2, cd)
    with pytest.raises(IndexError):
        in_lattice(F(1, 2), 5, cd)


def test_in_lattice_characteristic_jumps():
    cd = extract_characteristics(12, {18, 20, 23})
    for i in range(1, cd.s + 1):
        lam, ki = cd.lambdas[i - 1], cd.ks[i - 1]
        assert not in_lattice(lam, i - 1, cd)
        assert in_lattice(ki * lam, i - 1, cd)
        assert in_lattice(lam, i, cd)


def test_validate_paper_level2_example():
    b = validate_branch(BranchInput.from_terms(6, {9: 1, 10: 1}))
    assert b.cd.lambdas == (F(3, 2), F(5, 3))
    assert b.cs == (1, 1)
    assert all(phi.is_zero for phi in b.phis)


def test_validate_splits_tails():
    b = validate_branch(BranchInput.from_terms(6, {9: 1, 15: 2, 16: 1, 20: 5}))
    assert b.cd.lambdas == (F(3, 2), F(8, 3))
    assert b.phis[0] == UniPoly({15: 2})
    assert b.phis[1] == UniPoly({20: 5})
    assert b.cs == (1, 1)


def test_validate_rejects_integer_exponent():
    with pytest.raises(IntegerExponentError):
        validate_branch(BranchInput.from_terms(4, {6: 1, 8: 1}))


def test_check_tail_split_rejects_doctored_splits():
    cd = extract_characteristics(6, {9, 16})
    # exponent 14 is not in 6*M_1 = 3Z
    with pytest.raises(TailOutsideLatticeError):
        check_tail_split(cd, (1, 1), (UniPoly({14: 1}), UniPoly.zero()))
    # tail at level 1 reaching past k*lambda_2 = 16 violates the window
    with pytest.raises(TailOrderViolationError):
        check_tail_split(cd, (1, 1), (UniPoly({21: 1}), UniPoly.zero()))
    with pytest.warns(UserWarning):
        check_tail_split(cd, (1, 1), (UniPoly({21: 1}), UniPoly.zero()),
                         lenient=True)
    # ord(phi_1) <= k*lambda_1 = 9
    with pytest.raises(TailOrderViolationError):
        check_tail_split(cd, (1, 1), (UniPoly({9: 1}), UniPoly.zero()))


def test_product_of_ks_is_k_random():
    rng = random.Random(0xB1)
    for _ in range(200):
        b = rand_branch(rng)
        prod = 1
        for ki in b.cd.ks:
            assert ki >= 2
            prod *= ki
        assert prod == b.k == b.cd.es[-1]


def test_extraction_ignores_lattice_exponents_random():
    rng = random.Random(0xB2)
    for _ in range(200):
        b = rand_branch(rng, tail_prob=0.0)
        cd = b.cd
        support = {e for e, _ in b.terms}
        # adding any exponent already inside the running lattice changes nothing
        i = rng.randint(1, cd.s)
        stride = b.k // cd.es[i]
        extra = int(cd.lambdas[i - 1] * b.k) + stride * rng.randint(1, 5)
        if i < cd.s and extra >= cd.lambdas[i] * b.k:
            continue
        cd2 = extract_characteristics(b.k, support | {extra})
        assert cd2 == cd


def test_split_roundtrip():
    b = validate_branch(BranchInput.from_terms(6, {9: 1, 15: 2, 16: 1, 20: 5}))
    cs, phis = split_tails(b.cd, b.terms)
    assert cs == b.cs and phis == b.phis
    total = UniPoly(b.terms)
    rebuilt = UniPoly.zero()
    for i, (c, phi) in enumerate(zip(cs, phis), start=1):
        rebuilt = rebuilt + UniPoly.t(int(b.cd.lambdas[i - 1] * b.k), c) + phi
    assert rebuilt == total


def test_chardata_rejects_inconsistent_chains_under_optimize():
    # es must run 1, k_1, k_1*k_2, ... up to k; a bare assert would vanish under -O
    code = ("from fractions import Fraction\n"
            "from curvelift.chardata import CharData\n"
            "from curvelift.errors import InconsistentCharDataError\n"
            "try:\n"
            "    CharData(k=4, lambdas=(Fraction(3, 2),), ks=(2,), es=(1,))\n"
            "except InconsistentCharDataError:\n"
            "    print('rejected')\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         check=True)
    assert out.stdout == "rejected\n"
