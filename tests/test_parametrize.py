import random
from fractions import Fraction

import pytest

from curvelift import (INFINITY, BiPoly, UniPoly, generators, implicitize_all,
                       semigroup_member, truncation, valuation_table)
from helpers import naive_pullback, rand_bipoly, rand_branch


def test_truncation_reference_levels(branch12):
    p1 = truncation(branch12, 1)
    assert p1.xt == UniPoly.t(2) and p1.yt == UniPoly.t(3)
    p2 = truncation(branch12, 2)
    assert p2.xt == UniPoly.t(6) and p2.yt == UniPoly({9: 1, 10: 1})
    p3 = truncation(branch12, 3)
    assert p3.xt == UniPoly.t(12) and p3.yt == UniPoly({18: 1, 20: 1, 23: 1})
    with pytest.raises(IndexError):
        truncation(branch12, 4)


def test_truncation_keeps_tails(branch6_tails):
    p1 = truncation(branch6_tails, 1)
    # phi_1 = 2 t^15 rescaled by e_1/k = 1/3
    assert p1.yt == UniPoly({3: 1, 5: 2})
    p2 = truncation(branch6_tails, 2)
    assert p2.yt == UniPoly({9: 1, 15: 2, 16: 1, 20: 5})


def test_valuation_reference_values(branch12):
    f1 = BiPoly({(0, 2): 1, (3, 0): -1})
    p2 = truncation(branch12, 2)
    assert p2.valuation(f1) == 19
    delta2 = BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    f2 = f1 ** 3 + delta2
    p3 = truncation(branch12, 3)
    assert p3.valuation(f2) == 117
    assert p2.valuation(f2) is INFINITY
    # level ordering is not monotone: the level-1 value of f_2 is finite
    assert truncation(branch12, 1).valuation(f2) == 19


def test_monomial_valuation(branch12):
    for i in (1, 2, 3):
        p = truncation(branch12, i)
        e_i = branch12.cd.es[i]
        lam1 = branch12.cd.lambdas[0]
        for a, b in ((1, 0), (0, 1), (3, 2), (5, 7)):
            expect = a * e_i + b * int(e_i * lam1)
            assert p.valuation(BiPoly.monomial(a, b)) == expect


def test_pullback_matches_generic_compose(branch6_tails):
    rng = random.Random(0xD0)
    for i in (1, 2):
        p = truncation(branch6_tails, i)
        for _ in range(50):
            f = rand_bipoly(rng, 5, 5)
            assert p.pullback(f) == naive_pullback(f, p.e, p.yt)


def test_naive_pullback_agrees_on_corpus(corpus_chains):
    # zero, constants, and every f_i and d/dy f_i under every truncation
    for branch, chain, _ in corpus_chains.values():
        for j in range(1, branch.cd.s + 1):
            p = truncation(branch, j)
            polys = [BiPoly.zero(), BiPoly.one(), BiPoly.const(Fraction(-7, 3))]
            for f_i in chain.fs:
                polys += [f_i, f_i.partial_y()]
            for f in polys:
                assert p.pullback(f) == naive_pullback(f, p.e, p.yt)


def test_valuation_table_reference(branch12, chain12):
    table = valuation_table(chain12, branch12)
    assert table.ok
    # val_3(f_1) is the third-level second generator
    assert table.row(2, 3).value == 38
    # val_j(f_0) = e_j * lambda_1 at every level
    for j in (1, 2, 3):
        assert table.row(1, j).value == int(branch12.cd.es[j] * Fraction(3, 2))
    # d/dy f_1 = 2y has level-2 valuation 9 = 19 - e_2*lambda_2
    assert table.row(2, 2).dvalue == 9


def test_valuation_additivity_random():
    rng = random.Random(0xD1)
    for _ in range(200):
        b = rand_branch(rng, max_levels=2, max_k=9)
        p = truncation(b, rng.randint(1, b.cd.s))
        f, g = rand_bipoly(rng, 4, 4), rand_bipoly(rng, 4, 4)
        vf, vg = p.valuation(f), p.valuation(g)
        vfg = p.valuation(f * g)
        if vf is INFINITY or vg is INFINITY:
            assert vfg is INFINITY
        else:
            assert vfg == vf + vg
        vs = p.valuation(f + g)
        assert vs is INFINITY or vf is INFINITY or vg is INFINITY \
            or vs >= min(vf, vg)
        if vf is not INFINITY and vg is not INFINITY and vf != vg:
            assert vs == min(vf, vg)


def test_finite_valuations_in_semigroup_random():
    rng = random.Random(0xD2)
    for _ in range(200):
        b = rand_branch(rng, max_levels=2, max_k=9)
        i = rng.randint(1, b.cd.s)
        p = truncation(b, i)
        sd = generators(b.cd, i)
        f = rand_bipoly(rng, 4, 4)
        v = p.valuation(f)
        if v is not INFINITY:
            assert semigroup_member(v, sd)


def test_x_polynomial_scaling_law():
    rng = random.Random(0xD3)
    for _ in range(100):
        b = rand_branch(rng, max_levels=3, max_k=12)
        g = BiPoly({(rng.randint(0, 5), 0): rng.randint(1, 4) for _ in range(3)})
        vals = [truncation(b, j).valuation(g) for j in range(1, b.cd.s + 1)]
        for i in range(b.cd.s):
            for j in range(i, b.cd.s):
                e_i, e_j = b.cd.es[i + 1], b.cd.es[j + 1]
                assert vals[j] * e_i == vals[i] * e_j


def test_chain_valuation_table_certified(branch6_tails):
    chain = implicitize_all(branch6_tails, verify=True)
    assert chain.table is not None and chain.table.ok

