import operator
import random
from fractions import Fraction
from math import gcd

import pytest

import curvelift.algebra as algebra
from curvelift import INFINITY, BiPoly, Parametrization, UniPoly
from curvelift.algebra import Residual, bipoly_exact_div, sylvester_det
from helpers import naive_bi_mul, naive_det, naive_uni_mul, rand_bipoly, rand_unipoly


def test_uni_order_basic():
    assert UniPoly({3: 1, 5: 2}).order() == 3
    assert UniPoly.zero().order() is INFINITY
    with pytest.raises(ValueError, match="zero polynomial"):
        UniPoly.zero().degree()


def test_uni_order_of_pullback():
    # x = t^6, y = t^9 + t^10 pulled through y^2 - x^3 has order 19
    f = BiPoly({(0, 2): 1, (3, 0): -1})
    p = Parametrization(1, 6, UniPoly({9: 1, 10: 1})).pullback(f)
    assert p == UniPoly({19: 2, 20: 1})
    assert p.order() == 19


def test_infinity_comparisons():
    # INFINITY has no order: a comparison that forgot the zero case raises
    for other in (5, 10 ** 9, INFINITY):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(INFINITY, other)
            with pytest.raises(TypeError):
                op(other, INFINITY)
    assert INFINITY == INFINITY and INFINITY != 5 and repr(INFINITY) == "Infinity"


def test_compose_cusp_vanishes():
    f = BiPoly({(0, 2): 1, (3, 0): -1})
    assert Parametrization(1, 2, UniPoly({3: 1})).pullback(f).is_zero


def test_compose_projection():
    p = Parametrization(1, 6, UniPoly({7: 5}))
    assert p.pullback(BiPoly.monomial(1, 0)) == UniPoly({6: 1})


def test_horner_forms_one_product_per_coefficient_below_the_top(monkeypatch):
    # sum_l c_l * x**l from the top coefficient: m coefficients cost m - 1
    # products of x's type and no product of zero, zero coefficients are
    # skipped, and no coefficient gives the zero of x's type
    rng = random.Random(0x4E)
    products = []
    for cls, rand in ((UniPoly, rand_unipoly), (BiPoly, rand_bipoly)):
        mul = cls.__mul__

        def counting(a, b, mul=mul):
            products.append((a, b))
            return mul(a, b)

        for m in range(6):
            for _ in range(10):
                x = rand(rng) or cls.one()
                coeffs = [rand(rng) if rng.random() < 0.7 else cls.zero()
                          for _ in range(m)]
                want = cls.zero()
                for l, c in enumerate(coeffs):
                    want = want + c * x ** l
                products.clear()
                monkeypatch.setattr(cls, "__mul__", counting)
                got = algebra.horner(coeffs, x)
                monkeypatch.undo()
                assert got == want and type(got) is cls
                assert len(products) == max(m - 1, 0)
                assert all(not a.is_zero or coeffs[-1].is_zero for a, _ in products)


def test_powers_form_no_product_with_one(monkeypatch):
    # p**k squares and multiplies from p itself: bit_length(k) + popcount(k)
    # - 2 products for k >= 1, none for k = 0, and none of them with one;
    # a PowerChain's first power is its base itself, not a copy
    rng = random.Random(0x50)
    products = []
    for cls, rand in ((UniPoly, rand_unipoly), (BiPoly, rand_bipoly)):
        mul, one = cls.__mul__, cls.one()
        p = rand(rng)
        while not p or p == one:
            p = rand(rng)

        def counting(a, b, mul=mul):
            products.append((a, b))
            return mul(a, b)

        want = one
        for k in range(10):
            products.clear()
            monkeypatch.setattr(cls, "__mul__", counting)
            got = p ** k
            monkeypatch.undo()
            assert got == want and type(got) is cls
            assert len(products) == (k.bit_length() + k.bit_count() - 2 if k else 0)
            assert all(a != one and b != one for a, b in products)
            want = want * p
    z = 3 ** 200
    chain = algebra.PowerChain(z)
    assert chain.get(1) is z and chain.get(0) == 1
    assert chain.get(5) == z ** 5 and chain.get(1) is z


def test_coefficients_normalize_to_int():
    p = UniPoly({2: Fraction(4, 2)})
    assert p.coeff(2) == 2 and type(p.coeff(2)) is int
    q = BiPoly({(1, 1): Fraction(1, 3)}) * 3
    assert type(q.coeff((1, 1))) is int

    class Int(int):
        pass

    assert type(UniPoly({1: Int(3)}).coeff(1)) is int


def test_polynomials_reject_other_operands_and_negative_exponents():
    p = UniPoly({1: 1})
    with pytest.raises(ZeroDivisionError):
        algebra.coeff_div(1, 0)
    for spelling in (lambda: p + 1, lambda: p - 1, lambda: p * "x"):
        with pytest.raises(TypeError):
            spelling()
    with pytest.raises(ValueError, match="negative power"):
        p ** -1
    with pytest.raises(ValueError, match="exponent must be a non-negative int"):
        UniPoly({-1: 1})
    with pytest.raises(ValueError, match="exponent pair must be non-negative ints"):
        BiPoly({(0, -1): 1})


def test_repr_lists_the_terms_in_key_order():
    assert repr(UniPoly.zero()) == "UniPoly(0)"
    assert repr(UniPoly({3: Fraction(-1, 2), 0: 2})) == "UniPoly(2*t^0 + -1/2*t^3)"
    assert repr(BiPoly.zero()) == "BiPoly(0)"
    assert repr(BiPoly({(3, 0): Fraction(-2, 3), (0, 2): 1})) == \
        "BiPoly(1*x^0*y^2 + -2/3*x^3*y^0)"


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
    """Products whose middle coefficients cancel to zero, whose heights
    cancel against rational denominators, or whose middle coefficient sums
    every term pair at the operands' largest height."""
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
        # 2**j - 1 terms of height 2**k - 1: the middle coefficient of the
        # square sums all 2**j - 1 pairs, (2**j - 1) * (2**k - 1)**2, the
        # largest any product of such operands holds
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
    """A nonzero basis pullback for a residual: up to 12 terms with gaps,
    lowest exponent above 0, heights up to 2**64, either sign, integer or
    rational."""
    terms, e = {}, rng.randint(1, 20)
    for _ in range(rng.randint(1, 12)):
        v = rng.randint(1, 1 << rng.choice((1, 8, 64))) * rng.choice((1, -1))
        terms[e] = Fraction(v, rng.choice((1, 1, 2, 9, 1 << 40)))
        e += rng.choice((1, 1, 2, 17))
    return UniPoly(terms)


def test_residual_eliminate_leaves_a_shared_product_unchanged():
    # the steps of one beta tuple share its packed product: applied at two
    # orders in a row, the memo keeps the product it formed first under the
    # tuple unless a repack widened the level in between, and each
    # U/D + a * t**shift * P/d_p, the shift lining P's order up with U's, is
    # the schoolbook sum
    rng = random.Random(0xB8)
    shared = 0
    for _ in range(20):
        factors = [_factor(rng) for _ in range(rng.randint(1, 3))]
        betas = tuple(rng.randint(1, 2) for _ in factors) + (0,)
        full = {0: 1}
        for f, b in zip(factors, betas):
            for _ in range(b):
                full = naive_uni_mul(UniPoly(full), f)
        lo, hi = min(full), max(full)
        n = lo + rng.randint(0, 5)
        want = UniPoly({e: Fraction(rng.randint(1, 99) * rng.choice((1, -1)),
                                    rng.choice((1, 4, 7)))
                        for e in [n] + rng.sample(range(n + 1, n + hi + 40), 3)})
        r = Residual([*factors, want], 1)
        first = None
        for _ in range(2):
            n, w = r.order(), r._w
            a = r.eliminate(betas)
            if first is not None and r._w == w:
                assert r._memo[betas] is first
                shared += 1
            first = r._memo[betas]
            assert a == Fraction(-want.coeff(n)) / full[lo]
            sums = dict(want.terms())
            for e, v in full.items():
                sums[e + n - lo] = sums.get(e + n - lo, 0) + a * v
            want = UniPoly(sums)
            assert r.value() == want
    assert shared > 0


def test_residual_products_share_the_cached_powers():
    # the start residual u_{m-1}**k is the basis product of (0, ..., 0, k),
    # and a one-factor product is the PowerChain's cached power itself, not
    # a copy of it
    u = UniPoly({2: 3, 3: -1, 5: Fraction(1, 2)})
    v = UniPoly({1: 1, 4: Fraction(-2, 3)})
    for basis in ([u], [v, u]):
        for k in (1, 3):
            r = Residual(basis, k)
            assert r._u is r._pows[-1].get(k)
            assert r.value() == u ** k and r.order() == 2 * k
    r = Residual([u], 3)
    w = r._w
    for b in (1, 2):
        assert r.eliminate((b,))
        assert r._w == w and r._memo[(b,)][0] is r._pows[0].get(b)
    # the empty product is 1: x**alpha alone pulls back to a shift
    assert r.eliminate((0,))
    assert r._memo[(0,)][0] == 1


def test_residual_reads_its_lowest_digit_at_the_edges(monkeypatch):
    # order() is v2(U) // W past the packed order, and the lowest numerator
    # U_n the level keeps is the low W bits, signed. Both agree with the
    # UniPoly packed, for a negative digit, digits of +-(2**(W-1) - 1) side
    # by side, a gap of zero digits and a residual that vanishes exactly
    import curvelift.algebra as algebra
    edge = (1 << 15) - 1
    monkeypatch.setattr(algebra, "_width", lambda bound: 16)
    for c in ({3: -7, 4: 1}, {0: -1, 1: -1}, {2: edge, 3: -edge, 4: edge},
              {2: -edge, 3: edge, 4: -edge}, {5: 1, 6: -edge, 7: -edge}):
        for d in (1, 3):
            u = UniPoly({e: Fraction(v, d) for e, v in c.items()})
            r = Residual([u], 1)
            assert r._w == 16 and r.value() == u
            n = u.order()
            assert r.order() == n and Fraction(r._u_n, r._d) == u.coeff(n)
    monkeypatch.undo()
    for c in ({2: 3, 9: -4, 10: 1}, {4: -5}, {1: -edge, 2: edge, 8: -edge}):
        u = UniPoly(c)
        r = Residual([u], 1)
        while (n := r.order()) is not INFINITY:
            assert n == u.order() and r._u_n == u.coeff(n)
            assert r.eliminate((0,)) == -u.coeff(n)
            u = u - UniPoly({n: u.coeff(n)})
            assert r.value() == u
        assert u.is_zero and r.value().is_zero
    # after every step of a walk, U_n is the lowest numerator of U/D: for
    # residuals of either sign, with a window of one digit (each next order
    # is read off the whole of U) and of the default width, and across
    # repacks (no width slack, and products (6t - 4t**2)**b: their lowest
    # numerator 6**b grows B, and their even numerators leave U/D factors
    # that some repacks reduce)
    v = UniPoly({1: 6, 2: -4})
    monkeypatch.setattr(algebra, "_WIDTH_SLACK", 0)
    for digits in (1, algebra._ORDER_DIGITS):
        monkeypatch.setattr(algebra, "_ORDER_DIGITS", digits)
        negative = 0
        for sign in (1, -1):
            want = sign * UniPoly({2: 5, 3: -2, 7: Fraction(7, 2), 12: -11, 40: -1})
            r = Residual([v, want], 1)
            widths = {r._w}
            for step in range(30):
                n, b = r.order(), step % 3
                a = r.eliminate((b, 0))
                want = want + a * UniPoly({e + n - b: c for e, c in (v ** b).terms()})
                assert r.value() == want and r.order() == want.order()
                assert Fraction(r._u_n, r._d) == want.coeff(want.order())
                negative += r._u < 0
                widths.add(r._w)
            assert len(widths) > 2, (digits, widths)
        assert negative == 30, (digits, negative)


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


def _band(rng, rows, width, coeff=lambda rng: 1, fixed=False):
    """Rows y = 0 .. rows-1, each one run of x-powers (``width`` long, or up
    to it) starting 1.5 lower per row: the shape of the lift's f_i."""
    return BiPoly({(x, y): coeff(rng) for y in range(rows)
                   for x0 in [3 * (rows - 1 - y) // 2]
                   for x in range(x0, x0 + (width if fixed else rng.randint(1, width)))})


def _large_pairs(rng):
    """(a, b, packs): operands of many term pairs (or a zero one), and
    whether their product takes the packed route."""
    edge = (1 << 63) - 1
    sign = lambda rng: rng.choice((1, -1))
    gappy = lambda: BiPoly({(x, y): rng.randint(-9, 9) or 1 for y in (0, 1, 4, 5)
                            for x in range(25) if rng.random() < 0.6})
    f = _band(rng, 17, 8, fixed=True)
    big = _band(rng, 40, 30, fixed=True)
    return [
        (_band(rng, 33, 16), _band(rng, 17, 4), True),      # f_5 * f_4-like
        (f, f, True),                                       # squares
        (gappy(), gappy(), True),                           # empty rows, gaps
        (BiPoly({(x, 2): x + 1 for x in range(40)}),        # one row
         BiPoly({(x, 0): -x for x in range(5, 35)}), True),
        (BiPoly({(3, y): y - 20 for y in range(40)}),       # one column:
         BiPoly({(0, y): 1 for y in range(30)}), False),    # a term per row
        (BiPoly.monomial(4, 9, Fraction(-7, 3)), big, False),
        (BiPoly.zero(), big, False),
        (_band(rng, 20, 12, lambda rng: edge * sign(rng)),
         _band(rng, 12, 12, lambda rng: edge * sign(rng)), True),
        (_band(rng, 20, 10, lambda rng: Fraction(rng.randint(1, 9) * sign(rng),
                                                 rng.choice((1, 2, 3, 7)))),
         _band(rng, 15, 6, lambda rng: Fraction(sign(rng), rng.choice((1, 6)))),
         True),
        (_band(rng, 8, 5, fixed=True), _band(rng, 6, 4, fixed=True), True),  # 960 pairs
    ]


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
    for a, b, packs in _large_pairs(rng):
        assert (algebra._skewed_product(a._c, b._c) is not None) == packs
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
    # a power whose last squaring packs
    f = _band(rng, 9, 6)
    f2 = f * f
    assert algebra._skewed_product(f2._c, f2._c) is not None
    want = {(0, 0): Fraction(1)}
    for _ in range(4):
        want = naive_bi_mul(BiPoly(want), f)
    assert _ref(f ** 4) == want
    # at the shipped width, the least byte-aligned one, the middle numerator
    # 256*m**2 of a 256-term row squared fills all but the sign bit of its
    # digit, and a bound 256 times too small would give a byte less
    m = (1 << 59) + (1 << 57)
    row = BiPoly({(x, 0): m for x in range(256)})
    assert algebra._width(256 * m * m) - 1 == (256 * m * m).bit_length() == 127
    assert algebra._width(m * m) == 120
    for a, b in ((row, row), (row, -row)):
        assert algebra._skewed_product(a._c, b._c) is not None
        assert _ref(a * b) == naive_bi_mul(a, b)


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


def test_exact_div_of_zero_by_zero_and_by_a_monomial():
    # the leading-term loop alone: a zero numerator leaves nothing to
    # divide, and a monomial divisor is a divisor of one term
    x, y = BiPoly.monomial(1, 0), BiPoly.y()
    with pytest.raises(ZeroDivisionError):
        bipoly_exact_div(x, BiPoly.zero())
    assert bipoly_exact_div(BiPoly.zero(), x + y) == BiPoly.zero()
    assert bipoly_exact_div(BiPoly.zero(), x) == BiPoly.zero()
    q = BiPoly({(2, 1): Fraction(3, 2), (1, 3): -1, (0, 0): 5})
    m = BiPoly({(1, 2): -4})
    assert bipoly_exact_div(q * m, m) == q
    with pytest.raises(ArithmeticError, match="inexact division"):
        bipoly_exact_div(BiPoly({(2, 1): 1, (0, 1): 1}), BiPoly({(1, 1): 2}))


def test_sylvester_det_degenerate_shapes():
    # a zero column at the first or a later elimination step leaves no pivot
    zero, one, x, y = BiPoly.zero(), BiPoly.one(), BiPoly.monomial(1, 0), BiPoly.y()
    with pytest.raises(ValueError, match="not square"):
        sylvester_det([[one, y]])
    assert sylvester_det([]) == one
    assert sylvester_det([[zero, x], [zero, y]]) == zero
    assert sylvester_det([[x, zero, y], [y, zero, one], [one, zero, x]]) == zero


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
