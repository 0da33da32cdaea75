import random
from fractions import Fraction

import pytest

import curvelift.oracle as oracle
from curvelift import (BiPoly, UniPoly, implicitize_all, polygon_contains, polygon_desc,
                       resultant_implicitize, truncation, validate_branch)
from curvelift.chardata import split_tails
from curvelift.errors import InvariantError
from curvelift.oracle import _power_sums
from helpers import naive_uni_mul, rand_branch, sylvester_implicitize

CUSP = BiPoly({(0, 2): 1, (3, 0): -1})


def test_cusp_resultant(cusp):
    p = truncation(cusp, 1)
    assert resultant_implicitize(p) == CUSP
    monic, unit, raw = sylvester_implicitize(p)
    assert monic == CUSP
    assert raw == unit * CUSP and unit in (1, -1)


def test_reference_level2_resultant(branch12):
    res = resultant_implicitize(truncation(branch12, 2))
    assert res == CUSP ** 3 + BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})


def test_resultant_vanishes_and_fits_polygon(branch6_tails):
    for i in (1, 2):
        p = truncation(branch6_tails, i)
        res = resultant_implicitize(p)
        assert p.pullback(res).is_zero
        pd = polygon_desc(p)
        assert all(polygon_contains(key, pd) for key in res.support())


def test_oracle_equals_chain_random():
    rng = random.Random(0x20)
    for _ in range(25):
        b = rand_branch(rng, max_levels=2, max_k=9)
        chain = implicitize_all(b, verify=False)
        for i in range(1, b.cd.s + 1):
            if b.cd.es[i] > 12:
                continue
            res = resultant_implicitize(truncation(b, i))
            assert res == chain.fs[i - 1]


def test_norm_equals_sylvester_random():
    # the norm route against the classical elimination, on rational
    # coefficients and tails
    rng = random.Random(0x51)
    levels = tails = rational = 0
    for _ in range(40):
        b = rand_branch(rng, max_levels=3, max_k=12)
        tails += any(not phi.is_zero for phi in split_tails(b.cd, b.terms)[1])
        rational += any(type(c) is not int for _, c in b.terms)
        for i in range(1, b.cd.s + 1):
            p = truncation(b, i)
            assert resultant_implicitize(p) == sylvester_implicitize(p)[0]
            levels += 1
    assert levels >= 60 and tails >= 10 and rational >= 10


def test_norm_equals_sylvester_corpus(corpus_chains):
    checked = 0
    for branch, _, _ in corpus_chains.values():
        for i in range(1, branch.cd.s + 1):
            if branch.cd.es[i] > 12:
                continue
            p = truncation(branch, i)
            assert resultant_implicitize(p) == sylvester_implicitize(p)[0]
            checked += 1
    assert checked >= 20


def test_oracle_above_default_bound(corpus_chains):
    # every level of every corpus curve, paper-ex3 at e = 30 included
    top = 0
    for branch, chain, _ in corpus_chains.values():
        for i in range(1, branch.cd.s + 1):
            e_i = branch.cd.es[i]
            res = resultant_implicitize(truncation(branch, i))
            assert res == chain.fs[i - 1]
            top = max(top, e_i)
    assert top == 30


def naive_power_sums(e, ys):
    """[{}, P_1, .., P_e]: e times the coefficients of Y**m at exponents
    divisible by e, with Y**m built by schoolbook products."""
    y, power, out = UniPoly(ys), UniPoly.one(), [{}]
    for _ in range(e):
        power = UniPoly(naive_uni_mul(power, y))
        out.append({n // e: e * v for n, v in power.terms() if n % e == 0})
    return out


def test_power_sums_equal_schoolbook_powers():
    # a single term c*t fills its top digit: c**e sits just below or just
    # above a power of two
    for e, c in ((1, 127), (1, -127), (1, 128), (3, -5), (7, -2), (8, 2),
                 (15, -2), (16, 2)):
        assert _power_sums(e, {1: c}) == naive_power_sums(e, {1: c})
        assert _power_sums(e, {1: c})[e] == {1: e * c ** e}
    # seeded Y with negative terms and numerators up to 10**40, e up to 64
    rng = random.Random(0x24)
    for e in (2, 3, 7, 12, 30, 41, 64):
        for digits in (1, 4, 40):
            q0 = rng.randint(0, e)
            ys = {q0: rng.choice((-1, 1)) * rng.randint(1, 10 ** digits)}
            for _ in range(rng.randint(1, 3)):
                ys[q0 + rng.randint(1, 12)] = rng.choice((-1, 1)) * rng.randint(1, 10 ** digits)
            assert _power_sums(e, ys) == naive_power_sums(e, ys)


def test_newton_identity_rejects_a_power_sum_off_by_one(cusp, monkeypatch):
    # P_2 of the cusp is {3: 2}; one more makes 2*C_2 = P_1**2 - P_2 odd
    def mutant(e, ys):
        psums = _power_sums(e, ys)
        assert psums[2] == {3: 2}
        psums[2][3] += 1
        return psums

    monkeypatch.setattr(oracle, "_power_sums", mutant)
    with pytest.raises(InvariantError, match=r"Newton's identity gave -3/2, not in Z\[x\]"):
        resultant_implicitize(truncation(cusp, 1))


def test_oracle_equals_chain_up_to_e60():
    # every level of four branches whose last level is e = 40, 48, 60 and 40
    # with rational coefficients: the corpus stops at e = 30
    half, third = Fraction(3, 2), Fraction(2, 3)
    for k, terms in ((40, {60: 1, 70: 1, 75: 1, 76: 1}),
                     (48, {72: 1, 84: 1, 90: 1, 91: 1}),
                     (60, {90: 1, 105: 1, 110: 1, 111: 1}),
                     (40, {60: third, 70: -half, 75: -third, 76: half})):
        branch = validate_branch(k, terms)
        chain = implicitize_all(branch, verify=False)
        assert branch.cd.es[-1] == k
        for i in range(1, branch.cd.s + 1):
            assert resultant_implicitize(truncation(branch, i)) == chain.fs[i - 1]


def test_oracle_wide_coefficients():
    # numerators and denominators of 20 to 30 digits at e = 12, against the
    # chain and the Sylvester resultant
    branch = validate_branch(12, {18: Fraction(10 ** 30 + 7, 2 ** 61 - 1),
                                  20: -10 ** 25, 23: Fraction(-7, 10 ** 20 + 3)})
    chain = implicitize_all(branch, verify=False)
    assert branch.cd.es[-1] == 12
    for i in range(1, branch.cd.s + 1):
        p = truncation(branch, i)
        res = resultant_implicitize(p)
        assert res == chain.fs[i - 1] == sylvester_implicitize(p)[0]
