import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import gcd

import pytest

from curvelift import (INFINITY, BiPoly, Parametrization, UniPoly, generators,
                       implicitize_all, truncation, validate_branch,
                       valuation_table)
from curvelift.errors import InvalidBranchError
from curvelift.semigroup import semigroup_member
from helpers import naive_pullback, rand_bipoly, rand_branch


def test_truncation_reference_levels(branch12):
    p1 = truncation(branch12, 1)
    assert p1.e == 2 and p1.yt == UniPoly({3: 1})
    p2 = truncation(branch12, 2)
    assert p2.e == 6 and p2.yt == UniPoly({9: 1, 10: 1})
    p3 = truncation(branch12, 3)
    assert p3.e == 12 and p3.yt == UniPoly({18: 1, 20: 1, 23: 1})
    with pytest.raises(IndexError):
        truncation(branch12, 4)


def test_parametrization_is_frozen(branch12):
    # a truncation is immutable: assigning any field raises
    p = truncation(branch12, 2)
    for name, value in (("level", 1), ("e", 5), ("yt", UniPoly({3: 1}))):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, value)
    assert p == Parametrization(2, 6, UniPoly({9: 1, 10: 1}))


def test_truncations_of_mutated_corpus_branches_are_primitive(corpus_chains):
    # truncation checks nothing: every Branch that builds must give, at
    # every level, exponents m*e_i/k that are integral, primitive (gcd 1
    # with e_i) and of order e_i*lambda_1
    rng = random.Random(0xD4)
    built = 0
    for _ in range(600):
        branch = rng.choice(sorted(corpus_chains.items()))[1][0]
        terms = list(branch.terms)
        for _ in range(rng.randint(1, 3)):
            top = terms[-1][0] if terms else 3 * branch.k
            move = rng.randrange(3)
            if move == 0 or not terms:
                terms.append((rng.randint(1, top + branch.k), rng.choice((1, -2, Fraction(2, 3)))))
            elif move == 1:
                terms.pop(rng.randrange(len(terms)))
            else:
                j = rng.randrange(len(terms))
                terms[j] = (terms[j][0], rng.choice((0, 1, -1, Fraction(1, 3))))
        try:
            mutant = replace(branch, terms=tuple(terms))
        except InvalidBranchError:
            continue
        built += 1
        cd = mutant.cd
        for i in range(1, cd.s + 1):
            e_i = cd.es[i]
            kept = [(m, c) for m, c in mutant.terms
                    if i == cd.s or m < cd.lambdas[i] * cd.k]
            assert all(m * e_i % cd.k == 0 for m, _ in kept)
            yt = {m * e_i // cd.k: c for m, c in kept}
            assert gcd(e_i, *yt) == 1
            assert min(yt) == cd.lambdas[0] * e_i
            p = truncation(mutant, i)
            assert p.e == e_i and p.yt == UniPoly(yt)
    assert built > 250


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
    # yt = t**(10**5) * (1 + t), so y**60 pulls back to
    # t**(6*10**6) * (1 + t)**60: the evaluation holds its value relative to
    # the lowest exponent so far and packs no empty digits below it; a row
    # that starts lower (x pulls back to t) shifts the value up first
    p = Parametrization(1, 1, UniPoly({10**5: 1, 10**5 + 1: 1}))
    assert p.valuation(BiPoly.y(60)) == 6 * 10**6
    q = Parametrization(1, 1, UniPoly({1000: 1, 1001: 1}))
    f = BiPoly.y(60) + BiPoly.monomial(1, 0)
    assert q.valuation(f) == q.pullback(f).order() == 1


def test_pullback_matches_generic_compose(branch6_tails):
    # rational f on integer yt (branch6_tails) and on rational yt, so that
    # both f's and yt's denominators reach the pullback's final division
    rng = random.Random(0xD0)
    rational = validate_branch(6, {9: Fraction(3, 2), 15: Fraction(-2, 5),
                                   16: Fraction(1, 3), 20: Fraction(5, 7)})
    for branch in (branch6_tails, rational):
        for i in (1, 2):
            p = truncation(branch, i)
            for _ in range(50):
                f = rand_bipoly(rng, 5, 5)
                assert p.pullback(f) == naive_pullback(f, p.e, p.yt)


def test_valuation_is_the_pullback_order_on_every_horner_path():
    # valuation's step times Y = d_Y*yt keeps Y's lowest term unshifted and
    # turns each other term into a shifted add (numerator 1), a shifted
    # subtract (-1) or a multiple (any other): on yt whose lowest numerator
    # is each of those and whose other numerators mix them, the valuation is
    # the pullback's order, for random f and for f = y - (yt's first m
    # terms in x) and products of it, whose orders each of those terms moves
    rng = random.Random(0x7A)
    kind = {1: "+1", -1: "-1"}
    paths = set()
    for case in range(150):
        e = rng.choice((1, 2, 3))
        q0 = e * rng.randint(0, 3)
        ys = {q0: (1, -1, 3, Fraction(-2, 5))[case % 4]}
        for j in rng.sample(range(1, 12), rng.randint(0, 4)):
            ys[q0 + e * j] = rng.choice((1, -1, 2, -7, Fraction(1, 3)))
        p = Parametrization(1, e, UniPoly(ys))
        num = p.yt._c
        low = kind.get(num[q0], "other")
        paths |= {(low, kind.get(c, "other")) for q, c in num.items() if q != q0}
        if len(num) == 1:
            paths.add((low, None))
        polys = [rand_bipoly(rng, 4, 4) for _ in range(3)]
        terms = sorted(ys.items())
        for m in range(1, len(terms) + 1):
            g = BiPoly.y() - BiPoly({(q // e, 0): c for q, c in terms[:m]})
            polys += [g, g * g, g * BiPoly.y(2) + BiPoly.monomial(1, 1, Fraction(5, 3))]
        for f in polys:
            assert p.valuation(f) == p.pullback(f).order(), (ys, f)
    units = {"+1", "-1", "other"}
    assert paths == {(a, b) for a in units for b in units | {None}}


def test_naive_pullback_agrees_on_corpus(corpus_chains):
    # zero, constants, every f_i and d/dy f_i under every truncation, and
    # mutants of f_j that level j no longer annihilates: the pullback is the
    # naive one, and the valuation, an integer evaluation, is its order
    for branch, chain, _ in corpus_chains.values():
        for j in range(1, branch.cd.s + 1):
            p = truncation(branch, j)
            polys = [BiPoly.zero(), BiPoly.one(), BiPoly({(0, 0): Fraction(-7, 3)})]
            for f_i in chain.fs:
                polys += [f_i, f_i.partial_y()]
            f_j, e_j = chain.fs[j - 1], branch.cd.es[j]
            polys += [f_j + BiPoly.monomial(a, 0) for a in (1, 2, e_j)]
            polys += [f_j + BiPoly.monomial(0, b, Fraction(-3, 7))
                      for b in (0, 1, e_j // 2, e_j - 1)]
            for f in polys:
                pb = p.pullback(f)
                assert pb == naive_pullback(f, p.e, p.yt)
                assert p.valuation(f) == pb.order(), (p, f)
            assert p.valuation(f_j) is INFINITY
            assert p.valuation(BiPoly.zero()) is INFINITY
            assert p.valuation(BiPoly.one()) == 0


def test_valuation_table_reference(branch12, chain12):
    cd = branch12.cd
    levels = [(truncation(branch12, j), generators(cd, j)) for j in range(1, cd.s + 1)]
    table = valuation_table(chain12.fs, levels, cd.lambdas)
    assert table.ok
    # val_3(f_1) is the third-level second generator
    assert table.row(2, 3).value == 38
    # val_j(f_0) = e_j * lambda_1 at every level
    for j in (1, 2, 3):
        assert table.row(1, j).value == int(branch12.cd.es[j] * Fraction(3, 2))
    # d/dy f_1 = 2y has level-2 valuation 9 = 19 - e_2*lambda_2
    assert table.row(2, 2).dvalue == 9
    with pytest.raises(KeyError):
        table.row(4, 1)


def test_valuation_additivity_random():
    rng = random.Random(0xD1)
    for _ in range(200):
        b = rand_branch(rng, max_levels=2, max_k=9)
        p = truncation(b, rng.randint(1, b.cd.s))
        f, g = rand_bipoly(rng, 4, 4), rand_bipoly(rng, 4, 4)
        vf, vg = p.valuation(f), p.valuation(g)
        vfg = p.valuation(f * g)
        vs = p.valuation(f + g)
        assert [vf, vg, vfg, vs] == [p.pullback(h).order()
                                     for h in (f, g, f * g, f + g)]
        if vf is INFINITY or vg is INFINITY:
            assert vfg is INFINITY
        else:
            assert vfg == vf + vg
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

