import random
from fractions import Fraction

import pytest

from curvelift import (INFINITY, BiPoly, UniPoly, bipoly_compose, bipoly_exact_div,
                       sylvester_det)
from helpers import naive_det, rand_bipoly, rand_unipoly


def test_uni_order_basic():
    assert UniPoly({3: 1, 5: 2}).order() == 3
    assert UniPoly.zero().order() is INFINITY


def test_uni_order_of_pullback():
    # x = t^6, y = t^9 + t^10 pulled through y^2 - x^3 has order 19
    f = BiPoly({(0, 2): 1, (3, 0): -1})
    p = bipoly_compose(f, UniPoly.t(6), UniPoly({9: 1, 10: 1}))
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
    assert bipoly_compose(f, UniPoly.t(2), UniPoly.t(3)).is_zero


def test_compose_projection():
    assert bipoly_compose(BiPoly.x(), UniPoly.t(6), UniPoly({7: 5})) == UniPoly.t(6)


def test_coefficients_normalize_to_int():
    p = UniPoly({2: Fraction(4, 2)})
    assert p.coeff(2) == 2 and type(p.coeff(2)) is int
    q = BiPoly({(1, 1): Fraction(1, 3)}) * 3
    assert type(q.coeff((1, 1))) is int


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
        xt, yt = rand_unipoly(rng, 5, 3), rand_unipoly(rng, 5, 3)
        cf, cg = bipoly_compose(f, xt, yt), bipoly_compose(g, xt, yt)
        assert bipoly_compose(f * g, xt, yt) == cf * cg
        assert bipoly_compose(f + g, xt, yt) == cf + cg


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
    b, c, d = BiPoly.x(2), BiPoly.y(), BiPoly.const(3)
    assert sylvester_det([[a, b], [c, d]]) == a * d - b * c


def test_sylvester_det_cusp_resultant():
    # Sylvester matrix of (x - t^2, y - t^3) with respect to t, 5x5
    zero, one = BiPoly.zero(), BiPoly.one()
    mx, my = -BiPoly.x(), -BiPoly.y()
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
    row = [BiPoly.x(), BiPoly.y()]
    assert sylvester_det([row, row]).is_zero
