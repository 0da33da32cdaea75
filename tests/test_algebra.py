import random
from fractions import Fraction
from math import gcd, prod

import pytest

from curvelift import INFINITY, BiPoly, Parametrization, UniPoly
from curvelift.algebra import Residual, _kronecker_mul, bipoly_exact_div, sylvester_det
from helpers import naive_bi_mul, naive_det, naive_uni_mul, rand_bipoly, rand_unipoly


def test_uni_order_basic():
    assert UniPoly({3: 1, 5: 2}).order() == 3
    assert UniPoly.zero().order() is INFINITY


def test_uni_order_of_pullback():
    # x = t^6, y = t^9 + t^10 pulled through y^2 - x^3 has order 19
    f = BiPoly({(0, 2): 1, (3, 0): -1})
    p = Parametrization(1, 6, UniPoly({9: 1, 10: 1})).pullback(f)
    assert p == UniPoly({19: 2, 20: 1})
    assert p.order() == 19


def test_infinity_comparisons():
    assert INFINITY > 10 ** 9
    assert not (INFINITY < 5)
    assert 3 < INFINITY and not (3 > INFINITY)
    assert min(7, INFINITY) == 7
    assert INFINITY >= INFINITY and INFINITY <= INFINITY


def test_compose_cusp_vanishes():
    f = BiPoly({(0, 2): 1, (3, 0): -1})
    assert Parametrization(1, 2, UniPoly({3: 1})).pullback(f).is_zero


def test_compose_projection():
    p = Parametrization(1, 6, UniPoly({7: 5}))
    assert p.pullback(BiPoly.monomial(1, 0)) == UniPoly({6: 1})


def test_coefficients_normalize_to_int():
    p = UniPoly({2: Fraction(4, 2)})
    assert p.coeff(2) == 2 and type(p.coeff(2)) is int
    q = BiPoly({(1, 1): Fraction(1, 3)}) * 3
    assert type(q.coeff((1, 1))) is int


def test_polynomials_reject_bool_coefficients():
    # a bool is no coefficient, in a term map or as a scalar factor
    for spelling in (lambda: UniPoly({1: True}),
                     lambda: BiPoly({(0, 1): True}),
                     lambda: UniPoly({1: 1}) * True,
                     lambda: True * UniPoly({1: 1}),
                     lambda: BiPoly.y() * False):
        with pytest.raises(TypeError, match="got bool"):
            spelling()
    assert UniPoly({1: 1}) * 2 == 2 * UniPoly({1: 1}) == UniPoly({1: 2})


def test_zero_terms_dropped_and_cancellation():
    assert (UniPoly({3: 1}) - UniPoly({3: 1})).is_zero
    f = BiPoly({(0, 1): Fraction(1, 2)})
    assert (f + f) == BiPoly({(0, 1): 1})


def test_partial_y():
    f = BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    assert f.partial_y() == BiPoly({(5, 2): -6, (8, 0): -6})


def test_deg_y_sentinel():
    assert BiPoly.zero().deg_y() is INFINITY
    assert BiPoly({(2, 5): 1, (9, 1): 3}).deg_y() == 5


def _wide_unipoly(rng):
    """An operand for the multiply kernel: zero, one term, or a dense or
    sparse span of up to 300 terms; heights up to 2**200, either sign,
    integer or rational with several denominators."""
    n = rng.choice((0, 1, 1, 2, 3, 7, 16, 40, 120, 300))
    gap = rng.choice((1, 1, 2, 30, 1000) if n <= 40 else (1, 1, 2))
    bits = rng.choice((1, 8, 64, 200))
    dens = rng.choice(((1,), (1,), (2, 3), (1, 7, 12), (5, 1 << 70)))
    terms, e = {}, rng.randint(0, 50)
    for _ in range(n):
        v = rng.randint(1, 1 << bits) * rng.choice((1, -1))
        terms[e] = Fraction(v, rng.choice(dens))
        e += rng.randint(1, gap)
    return UniPoly(terms)


def _edge_pairs():
    """Products whose middle digits cancel to zero, borrow, or come
    closest to the bound on the digit width."""
    h = 1 << 200
    q = Fraction(h, 3)
    yield UniPoly({0: h, 1: h}), UniPoly({0: h, 1: -h})          # h^2 (1 - t^2)
    yield UniPoly({0: q, 1: q}), UniPoly({0: Fraction(7, h + 1), 1: Fraction(-7, h + 1)})
    yield UniPoly({0: 1, 1: -1}), UniPoly({0: 1, 1: -1})          # 1 - 2t + t^2
    yield UniPoly({0: 1, 1: -1}), UniPoly({i: 1 for i in range(300)})  # 1 - t^300
    g = 1 << 20                                                   # g^12 - t^12
    yield UniPoly({0: g, 1: -1}), UniPoly({i: g ** (11 - i) for i in range(12)})
    yield UniPoly({0: -h, 5: -h}), UniPoly({0: -h, 5: -h})
    for j, k in ((2, 3), (4, 2), (4, 6), (8, 100)):
        # 2**j - 1 terms of height 2**k - 1: the middle coefficient is over
        # half the bound, and the bound's bits, 2k + j + 1, fill whole
        # bytes but for the sign bit
        full = UniPoly({i: (1 << k) - 1 for i in range((1 << j) - 1)})
        yield full, full
        yield full, -full


def _assert_canonical(p):
    for _, v in p.terms():
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
    assert UniPoly(dict(p.terms())) == p


def test_uni_mul_matches_schoolbook_random():
    rng = random.Random(0xA6)
    pairs = list(_edge_pairs())
    pairs += [(_wide_unipoly(rng), _wide_unipoly(rng)) for _ in range(150)]
    scalars = (0, 1, -1, 3, 1 << 130, Fraction(1, 2), Fraction(-7, 6),
               Fraction(3, 1 << 70))
    for a, b in pairs:
        ab = a * b
        ref = naive_uni_mul(a, b)
        assert dict(ab.terms()) == ref and len(ab.terms()) == len(ref)
        assert ab == b * a
        ca, cb = dict(a.terms()), dict(b.terms())
        s = rng.choice(scalars)
        a_s = a * s
        assert dict(a_s.terms()) == {e: v * s for e, v in ca.items() if s}
        assert s * a == a_s
        keys = ca.keys() | cb.keys()
        plus = {e: Fraction(ca.get(e, 0)) + cb.get(e, 0) for e in keys}
        minus = {e: Fraction(ca.get(e, 0)) - cb.get(e, 0) for e in keys}
        a_plus_b, a_minus_b = a + b, a - b
        assert dict(a_plus_b.terms()) == {e: v for e, v in plus.items() if v}
        assert dict(a_minus_b.terms()) == {e: v for e, v in minus.items() if v}
        for p in (a, ab, a_s, a_plus_b, a_minus_b):
            _assert_canonical(p)


def _factor(rng):
    """A nonzero factor for the n-ary product: up to 12 terms with gaps,
    lowest exponent above 0, heights up to 2**64, either sign, integer or
    rational."""
    terms, e = {}, rng.randint(1, 20)
    for _ in range(rng.randint(1, 12)):
        v = rng.randint(1, 1 << rng.choice((1, 8, 64))) * rng.choice((1, -1))
        terms[e] = Fraction(v, rng.choice((1, 1, 2, 9, 1 << 40)))
        e += rng.choice((1, 1, 2, 17))
    return UniPoly(terms)


def test_kronecker_product_of_n_factors():
    rng = random.Random(0xB7)
    cases = [[_factor(rng) for _ in range(m)]
             for m in range(1, 6) for _ in range(25)]
    # dense factors of one height: every product term adds up. m factors of
    # 2**j - 1 terms of height 2**k - 1 give a width of m*k + (m-1)*j + 1
    # bits, a multiple of 8 here, so rounding to bytes leaves no slack
    for m, k, j in ((1, 7, 5), (2, 3, 1), (3, 5, 4), (4, 2, 5), (5, 3, 2),
                    (3, 101, 4)):
        full = UniPoly({i + 1: (1 << k) - 1 for i in range((1 << j) - 1)})
        assert (m * k + (m - 1) * j + 1) % 8 == 0
        cases += [[full] * m, [-full] * m]
    for factors in cases:
        lo, digits = _kronecker_mul([f._c for f in factors])
        assert digits[0] and digits[-1]
        got = UniPoly._reduced({e: v for e, v in enumerate(digits, lo) if v},
                               prod(f._d for f in factors))
        ref = {0: 1}
        for f in factors:
            ref = naive_uni_mul(UniPoly(ref), f)
        assert dict(got.terms()) == ref, len(factors)
    assert _kronecker_mul([]) == (0, [1])


def test_residual_eliminate_leaves_a_shared_product_unchanged():
    # lift hands every step of one beta tuple the same (lo, P, d_p): applied
    # at two shifts to fresh residuals, the product's digits stay as they
    # were, and each u + a * t**shift * P/d_p is the schoolbook sum
    rng = random.Random(0xB8)
    for _ in range(20):
        factors = [_factor(rng) for _ in range(rng.randint(1, 3))]
        product = (*_kronecker_mul([f._c for f in factors]),
                   prod(f._d for f in factors))
        digits = list(product[1])
        full = {0: 1}
        for f in factors:
            full = naive_uni_mul(UniPoly(full), f)
        lo, hi = product[0], max(full)
        for shift in (rng.randint(0, 5), rng.randint(6, 40)):
            n, bound = lo + shift, hi + shift + 3
            u = UniPoly({e: Fraction(rng.randint(1, 99) * rng.choice((1, -1)),
                                     rng.choice((1, 4, 7)))
                         for e in [n] + rng.sample(range(n + 1, bound + 1), 3)})
            r = Residual(u, bound)
            assert r.eliminate(product, shift + 1) is None
            a = r.eliminate(product, shift)
            assert product[1] == digits
            assert a == Fraction(-u.coeff(n)) / full[lo]
            want = dict(u.terms())
            for e, v in full.items():
                want[e + shift] = want.get(e + shift, 0) + a * v
            got = UniPoly._raw({e: v for e, v in enumerate(r._u) if v}, r._d)
            assert dict(got.terms()) == {e: v for e, v in want.items() if v}


def test_uni_canonical_equality():
    assert UniPoly({1: Fraction(1, 2)}) * 2 == UniPoly({1: 1})
    assert UniPoly({0: Fraction(1, 6)}) + UniPoly({0: Fraction(1, 3)}) == \
        UniPoly({0: Fraction(1, 2)})
    p = UniPoly({0: Fraction(2, 3), 4: Fraction(-5, 9)})
    assert (p - p) == UniPoly.zero() and (p * 0).is_zero
    assert p * UniPoly({2: Fraction(9, 2)}) == UniPoly({2: 3, 6: Fraction(-5, 2)})
    assert type((p * 9).coeff(4)) is int


def _wide_bipoly(rng):
    """An operand for the bivariate kernel: zero, one term, or up to 40
    terms; heights up to 2**200, either sign, integer or rational with
    several denominators."""
    n = rng.choice((0, 1, 2, 3, 6, 12, 40))
    span = rng.choice((2, 4, 9))
    bits = rng.choice((1, 8, 64, 200))
    dens = rng.choice(((1,), (2, 3), (1, 7, 12), (5, 1 << 70)))
    return BiPoly([((rng.randint(0, span), rng.randint(0, span)),
                    Fraction(rng.randint(1, 1 << bits) * rng.choice((1, -1)),
                             rng.choice(dens)))
                   for _ in range(n)])


def _assert_bi_canonical(p):
    c, d = p._c, p._d
    assert type(d) is int and d > 0
    assert all(type(v) is int and v for v in c.values())
    assert gcd(d, *c.values()) == 1
    if not c:
        assert d == 1
    for _, v in p.terms():
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
    assert BiPoly(dict(p.terms())) == p
    # the same polynomial by another route: each coefficient split in two
    assert BiPoly([(k, w) for k, v in p.terms()
                   for w in (Fraction(v) / 3, Fraction(v) * 2 / 3)]) == p


def _ref(p) -> dict:
    return {k: Fraction(v) for k, v in p.terms()}


def _nonzero(c: dict) -> dict:
    return {k: v for k, v in c.items() if v}


def test_bi_ops_match_fraction_reference_random():
    rng = random.Random(0xA7)
    x, y = BiPoly.monomial(1, 0), BiPoly.y()
    h = Fraction(1 << 200, 3)
    pairs = [(x + y, x - y), (x * h + y, x * h - y)]          # middle terms cancel
    for _ in range(120):
        a = _wide_bipoly(rng)
        kind = rng.random()
        if kind < 0.15:
            b = -a                                              # cancels to zero
        elif kind < 0.3:                                        # partly cancels
            b = BiPoly([(k, -v) for k, v in a.terms() if rng.random() < 0.5]) + \
                _wide_bipoly(rng)
        else:
            b = _wide_bipoly(rng)
        pairs.append((a, b))
    scalars = (0, 1, -1, 6, 1 << 130, Fraction(1, 2), Fraction(-7, 6),
               Fraction(3, 1 << 70))
    for a, b in pairs:
        ca, cb = _ref(a), _ref(b)
        keys = ca.keys() | cb.keys()
        s = rng.choice(scalars)
        n = rng.randint(0, 3)
        a_n = {(0, 0): Fraction(1)}
        for _ in range(n):
            a_n = naive_bi_mul(BiPoly(a_n), a)
        results = [
            (a + b, {k: ca.get(k, 0) + cb.get(k, 0) for k in keys}),
            (a - b, {k: ca.get(k, 0) - cb.get(k, 0) for k in keys}),
            (b + a, {k: ca.get(k, 0) + cb.get(k, 0) for k in keys}),
            (a * b, naive_bi_mul(a, b)),
            (b * a, naive_bi_mul(a, b)),
            (a * s, {k: v * s for k, v in ca.items()}),
            (s * a, {k: v * s for k, v in ca.items()}),
            (a ** n, a_n),
            (a.partial_y(), {(i, j - 1): v * j for (i, j), v in ca.items() if j}),
            (a - a, {}),
        ]
        for got, want in results:
            assert _ref(got) == _nonzero(want)
            assert len(got) == len(_nonzero(want))
            _assert_bi_canonical(got)
            if not want or not any(want.values()):
                assert got._c == {} and got._d == 1 and got == BiPoly.zero()


def test_bi_canonical_equality():
    assert BiPoly({(0, 0): Fraction(2, 4)}) == BiPoly({(0, 0): Fraction(1, 2)})
    assert BiPoly({(1, 2): Fraction(3, 6)}) * 2 == BiPoly.monomial(1, 2)
    assert BiPoly([((0, 1), Fraction(1, 6)), ((0, 1), Fraction(1, 3))]) == \
        BiPoly.y() * Fraction(1, 2)
    f = BiPoly({(0, 2): Fraction(2, 3), (3, 0): Fraction(-4, 9)})
    assert f.partial_y() == BiPoly({(0, 1): Fraction(4, 3)})
    assert f.partial_y()._d == 3 and (f * 9)._d == 1
    assert (f - f)._c == {} and (f - f)._d == 1 and (f * 0) == BiPoly.zero()
    assert BiPoly({(0, 0): 0}) == BiPoly.zero() and not BiPoly.monomial(2, 3, 0)


def test_uni_order_additivity_random():
    rng = random.Random(0xA1)
    for _ in range(300):
        p, q = rand_unipoly(rng), rand_unipoly(rng)
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
            continue
        assert (p * q).order() == p.order() + q.order()
        s = p + q
        if not s.is_zero:
            assert s.order() >= min(p.order(), q.order())
        if p.order() != q.order():
            assert s.order() == min(p.order(), q.order())


def test_compose_is_ring_homomorphism_random():
    rng = random.Random(0xA2)
    for _ in range(200):
        f, g = rand_bipoly(rng, 4, 4), rand_bipoly(rng, 4, 4)
        p = Parametrization(1, rng.randint(1, 5), rand_unipoly(rng, 5, 3))
        cf, cg = p.pullback(f), p.pullback(g)
        assert p.pullback(f * g) == cf * cg
        assert p.pullback(f + g) == cf + cg


def test_exact_rational_cross_multiplication():
    rng = random.Random(0xA3)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(1, 50)
        c, d = rng.randint(-50, 50), rng.randint(1, 50)
        s = Fraction(a, b) + Fraction(c, d)
        assert s.numerator * (b * d) == (a * d + c * b) * s.denominator


def test_exact_div_roundtrip_random():
    rng = random.Random(0xA4)
    for _ in range(200):
        q = rand_bipoly(rng, 4, 4)
        d = rand_bipoly(rng, 3, 3)
        if d.is_zero:
            continue
        assert bipoly_exact_div(q * d, d) == q


def test_exact_div_rejects_inexact():
    with pytest.raises(ArithmeticError):
        bipoly_exact_div(BiPoly({(1, 0): 1}), BiPoly({(0, 1): 1, (2, 0): 1}))


def test_sylvester_det_identity_cases():
    a = BiPoly({(0, 1): 1, (1, 0): -1})  # y - x
    assert sylvester_det([[a]]) == a
    b, c, d = BiPoly.monomial(2, 0), BiPoly.y(), BiPoly({(0, 0): 3})
    assert sylvester_det([[a, b], [c, d]]) == a * d - b * c


def test_sylvester_det_cusp_resultant():
    # Sylvester matrix of (x - t^2, y - t^3) with respect to t, 5x5
    zero, one = BiPoly.zero(), BiPoly.one()
    mx, my = -BiPoly.monomial(1, 0), -BiPoly.y()
    m = [
        [one, zero, mx, zero, zero],
        [zero, one, zero, mx, zero],
        [zero, zero, one, zero, mx],
        [one, zero, zero, my, zero],
        [zero, one, zero, zero, my],
    ]
    det = sylvester_det(m)
    cusp = BiPoly({(0, 2): 1, (3, 0): -1})
    assert det == cusp or det == -cusp
    assert det == naive_det(m)


def test_sylvester_det_matches_naive_random():
    rng = random.Random(0xA5)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[rand_bipoly(rng, 2, 2) if rng.random() < 0.7 else BiPoly.zero()
              for _ in range(n)] for _ in range(n)]
        assert sylvester_det(m) == naive_det(m)


def test_sylvester_det_singular():
    row = [BiPoly.monomial(1, 0), BiPoly.y()]
    assert sylvester_det([row, row]).is_zero
