import random

from curvelift import (BiPoly, implicitize_all, polygon_contains, polygon_desc,
                       resultant_implicitize, truncation)
from helpers import rand_branch, sylvester_implicitize

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
        tails += any(not phi.is_zero for phi in b.phis)
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
