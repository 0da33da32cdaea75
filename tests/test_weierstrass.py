import random
from fractions import Fraction

import pytest

from curvelift import (BiPoly, adic_decompose, adic_reconstruct, basis_decompose,
                       basis_reconstruct, is_weierstrass, truncation, weierstrass_divide)
from curvelift.errors import DegreeOutOfRangeError, DegreeTooSmallError, NotWeierstrassError
from helpers import naive_basis_reconstruct, rand_bipoly, rand_branch, rand_coeff

F1 = BiPoly({(0, 2): 1, (3, 0): -1})                       # y^2 - x^3
DELTA2 = BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})      # with unit coefficients


def test_is_weierstrass():
    assert is_weierstrass(F1) == (True, 2)
    assert is_weierstrass(BiPoly({(0, 2): 1, (0, 1): 1}))[0] is False   # a_1(0) != 0
    assert is_weierstrass(BiPoly({(0, 2): 2, (3, 0): 1}))[0] is False   # not monic
    assert is_weierstrass(BiPoly({(1, 2): 1, (0, 2): 1}))[0] is False   # x at top power
    assert is_weierstrass(BiPoly.zero())[0] is False


def test_divide_reference_example():
    q, r = weierstrass_divide(DELTA2, F1)
    assert q == BiPoly({(5, 1): -2})
    assert r == BiPoly({(8, 1): -8, (10, 0): 1})
    assert q * F1 + r == DELTA2


def test_divide_exact_plus_small_remainder():
    g = F1 * BiPoly.y() + BiPoly.x()
    q, r = weierstrass_divide(g, F1)
    assert q == BiPoly.y() and r == BiPoly.x()


def test_divide_errors():
    with pytest.raises(NotWeierstrassError):
        weierstrass_divide(DELTA2, BiPoly({(0, 2): 2}))
    with pytest.raises(DegreeTooSmallError):
        weierstrass_divide(BiPoly.y(), F1)
    with pytest.raises(DegreeTooSmallError):
        weierstrass_divide(F1, F1)


def test_divide_roundtrip_random():
    rng = random.Random(0xF0)
    for _ in range(250):
        g = rand_bipoly(rng, max_exp=8, max_terms=6)
        if g.is_zero or g.deg_y() <= 2:
            continue
        q, r = weierstrass_divide(g, F1)
        assert q * F1 + r == g
        assert r.is_zero or r.deg_y() < 2
        assert q.is_zero or q.deg_y() <= g.deg_y() - 2


def synthetic_divide(g: BiPoly, p: BiPoly):
    """Independent divider: dense-in-y lists of x-coefficient dicts,
    classical synthetic division over the coefficient field (the divisor is
    monic, so no denominators actually appear)."""
    def to_rows(f):
        rows = [dict() for _ in range(f.deg_y() + 1)]
        for (a, b), v in f.terms():
            rows[b][a] = v
        return rows

    def row_sub_scaled(target, row, qrow):
        for a1, v1 in qrow.items():
            for a2, v2 in row.items():
                a = a1 + a2
                w = target.get(a, 0) - v1 * v2
                if w:
                    target[a] = w
                else:
                    target.pop(a, None)

    grows, prows = to_rows(g), to_rows(p)
    m = len(prows) - 1
    q = [dict() for _ in range(len(grows) - m)]
    rows = [dict(r) for r in grows]
    for d in range(len(grows) - 1, m - 1, -1):
        qrow = dict(rows[d])
        q[d - m] = qrow
        for l in range(m + 1):
            row_sub_scaled(rows[d - m + l], prows[l], qrow)
    qpoly = BiPoly([((a, b), v) for b, row in enumerate(q) for a, v in row.items()])
    rpoly = BiPoly([((a, b), v) for b, row in enumerate(rows[:m])
                    for a, v in row.items()])
    return qpoly, rpoly


def test_divide_matches_independent_synthetic_division():
    rng = random.Random(0xF1)
    checked = 0
    for _ in range(200):
        g = rand_bipoly(rng, max_exp=7, max_terms=6)
        if g.is_zero or g.deg_y() <= 2:
            continue
        q, r = weierstrass_divide(g, F1)
        q2, r2 = synthetic_divide(g, F1)
        assert (q, r) == (q2, r2)
        checked += 1
    assert checked > 100


def chain12():
    from curvelift import implicitize_all, validate_branch
    b = validate_branch(12, {18: 1, 20: 1, 23: 1})
    return implicitize_all(b, verify=False)


def test_adic_reference_example():
    chain = chain12()
    dec = adic_decompose(DELTA2, chain, 2)
    assert dec.d == 1
    assert dec.coeffs[0] == BiPoly({(8, 1): -8, (10, 0): 1})
    assert dec.coeffs[1] == BiPoly({(5, 1): -2})
    assert adic_reconstruct(dec, chain) == DELTA2


def test_adic_low_degree_is_identity():
    chain = chain12()
    g = BiPoly({(4, 1): 3, (7, 0): -1})     # deg_y < e_1
    dec = adic_decompose(g, chain, 2)
    assert dec.d == 0 and dec.coeffs[0] == g


def test_adic_degree_guard():
    chain = chain12()
    with pytest.raises(DegreeOutOfRangeError):
        adic_decompose(BiPoly.y(6), chain, 2)


def test_adic_roundtrip_random():
    rng = random.Random(0xF2)
    chain = chain12()
    for _ in range(200):
        i = rng.randint(1, 3)
        e_i = chain.cd.es[i]
        g = rand_bipoly(rng, max_exp=e_i - 1, max_terms=6)
        if not g.is_zero and g.deg_y() >= e_i:
            continue
        dec = adic_decompose(g, chain, i)
        assert adic_reconstruct(dec, chain) == g
        e_prev = chain.cd.es[i - 1]
        for a in dec.coeffs:
            assert a.is_zero or a.deg_y() < e_prev
        assert dec.d < chain.cd.ks[i - 1]
        # uniqueness: re-decomposition of the reconstruction is identical
        dec2 = adic_decompose(adic_reconstruct(dec, chain), chain, i)
        assert dec2.coeffs == dec.coeffs


def test_basis_reference_example():
    chain = chain12()
    terms = basis_decompose(DELTA2, chain, 2)
    assert terms == [(-2, (5, 1, 1)), (-8, (8, 1, 0)), (1, (10, 0, 0))]
    assert basis_reconstruct(terms, chain.fs[:1]) == DELTA2
    assert basis_decompose(BiPoly.y(), chain, 2) == [(1, (0, 1, 0))]


def test_basis_caps_and_roundtrip_random():
    rng = random.Random(0xF3)
    chain = chain12()
    cd = chain.cd
    for _ in range(200):
        i = rng.randint(1, 3)
        e_i = cd.es[i]
        g = rand_bipoly(rng, max_exp=e_i - 1, max_terms=6)
        if not g.is_zero and g.deg_y() >= e_i:
            continue
        terms = basis_decompose(g, chain, i)
        assert basis_reconstruct(terms, chain.fs[:i - 1]) == g
        for _, exps in terms:
            assert len(exps) == i + 1
            assert exps[1] < cd.es[1]
            for l in range(1, i):
                assert exps[l + 1] < cd.ks[l]
        # tuples are unique and their level-i valuations pairwise distinct
        assert len({e for _, e in terms}) == len(terms)
        from curvelift import generators
        sg = generators(cd, i).generators_list()
        vals = [sg[0] * exps[0] + sum(sg[1 + l] * exps[1 + l] for l in range(i))
                for _, exps in terms]
        assert len(set(vals)) == len(vals)


def test_basis_reconstruct_matches_per_term_reference():
    fs = chain12().fs
    assert basis_reconstruct([], ()) == BiPoly.zero()
    assert basis_reconstruct([], fs[:2]) == BiPoly.zero()
    assert basis_reconstruct([(3, (2, 5))], ()) == BiPoly.monomial(2, 5, 3)
    lone = [(Fraction(-2, 3), (1, 0, 0, 9))]     # a lone high power of f_2
    assert basis_reconstruct(lone, fs[:2]) == naive_basis_reconstruct(lone, fs[:2])
    with pytest.raises(ValueError):                # one exponent short
        basis_reconstruct([(1, (0, 1, 0))], fs[:2])
    rng = random.Random(0xF5)
    for _ in range(150):
        i = rng.randint(1, 3)
        # betas up to 5 cross the caps beta_0 < 2, beta_1 < 3, beta_2 < 2, and
        # a few terms leave gaps in the last exponent
        terms = [(rand_coeff(rng), (rng.randint(0, 4),
                                    *(rng.randint(0, 5) for _ in range(i))))
                 for _ in range(rng.randint(0, 6))]
        assert basis_reconstruct(terms, fs[:i - 1]) == \
            naive_basis_reconstruct(terms, fs[:i - 1])


def test_level1_valuation_collision_forces_multiple():
    # equal level-1 valuations of a*y^alpha and b*y^beta force e_1 | alpha - beta
    rng = random.Random(0xF4)
    for _ in range(200):
        branch = rand_branch(rng, max_levels=2, max_k=9)
        p1 = truncation(branch, 1)
        e1 = branch.cd.es[1]
        a_pow = rng.randint(0, 6)
        b_pow = rng.randint(0, 6)
        fa = BiPoly({(rng.randint(0, 5), a_pow): 1})
        fb = BiPoly({(rng.randint(0, 5), b_pow): 1})
        if p1.valuation(fa) == p1.valuation(fb):
            assert (a_pow - b_pow) % e1 == 0
