"""Exact arithmetic kernel: rationals, sparse polynomials, determinants.

Coefficients are exact rationals: integral values are plain ``int`` and
everything else is ``fractions.Fraction``; the two mix freely under
Python's numeric tower. ``terms()`` and ``coeff()`` of both polynomial
types return values of that form. Polynomials are immutable.

``UniPoly`` (in t; keys are exponents ``e``) and ``BiPoly`` (in x and y;
keys are pairs ``(a, b)``, a = x-power, b = y-power) share one form: one
denominator ``_d > 0`` and a map ``_c`` from keys to nonzero integer
numerators, so the coefficient at ``k`` is ``_c[k] / _d``. The form is
canonical: ``gcd(_d, *_c.values()) == 1`` and zero is ``({}, 1)``, so
equal polynomials have equal fields. ``+`` and ``-`` rescale the
numerators to the lcm of the two denominators, scalar ``*`` scales
numerators and denominator, and a product multiplies the denominators;
each reduces once with one ``gcd``.

An integer map {e: c_e} with lowest exponent lo packs, at a digit width W
that is a whole number of bytes, as the int sum c_e*2**(W*(e-lo)): its
value at t = 2**W over t**lo. Evaluation at 2**W is a ring homomorphism,
so sums and products of packed ints are the packed sums and products, and
only a decode needs a bound: if every numerator lies strictly between
-2**(W-1) and 2**(W-1), no digit overflows into its neighbour, and each
reads back exactly.

A ``UniPoly`` product is schoolbook over the numerators, the shorter
operand in the outer loop: in the pipeline it is a Horner step of
``Parametrization.pullback``, whose factor ``yt`` has a few terms. A
``BiPoly`` product is one int product at the skewed key x + s*y (Kronecker
substitution with a skew chosen per product; von zur Gathen and Gerhard,
*Modern Computer Algebra*, 8.4) when that packs densely enough, and the
same loop otherwise. The lift's products (``f_{i-1}**k_i`` and the Horner
steps of ``basis_reconstruct``) have banded operands: each y-row of f_i is
one short run of x-powers, and the runs slide down as y grows. Let
[L_y, H_y] be the x-range of the product's row y, taken over the pairs of
operand rows with ya + yb = y as the least la + lb and the greatest
ha + hb. The skew s is the least s >= 1 with H_y + s*y < L_y' + s*y' for
each two consecutive rows y < y'. Then the key maps the rows to disjoint
intervals that increase with y, so it is injective on the product's
support, and on each operand's: an operand row shifted by one fixed row of
the other lies inside a product row. Keys add as monomials multiply, so
packing each operand by key and multiplying the two ints gives the product
packed by key (a square packs once). The digit at the key of (x, y) is the
numerator there, a sum of a_i*b_j over pairs with at most one b_j for each
a_i and one a_i for each b_j, so it is at most
min(||A||_1*||B||_inf, ||A||_inf*||B||_1) in size, and W is ``_width`` of
that bound (no spare bits: it does not grow); keys between the row
intervals read 0, and only the intervals are read back. Packing costs
digits, not term pairs, so ``_skewed_product`` leaves a product to the
loop unless it has at least ``_PACKED_FILL`` term pairs per pair of
operand rows (reading the ranges off each row pair costs as much as a term
pair) and per digit of the packed product. The key is injective on each
operand, so the product has at least as many digits as either operand has
terms, and the digit test runs at that count first, before any range is
read. Operands with few terms per row, or with wide gaps in x, miss these
tests; the lift's large banded ones meet them.

Every product chain starts from its first factor and forms no product
with one: ``__pow__`` (p**n costs bit_length(n) + popcount(n) - 2
products for n >= 1), ``PowerChain`` (base**1 is the base itself),
``Residual._product`` (a one-factor product is the cached power, shared
and not copied) and ``horner`` (from the top coefficient).

``Residual`` is one lift level in packed t-series arithmetic, at one digit
width W for the whole level. Each basis pullback u_l = N_l/d_l is packed
once, from its own order; its powers (``PowerChain``) and the product
prod_l u_l**b_l of each beta tuple a step names, kept under the tuple, are
int products of those, so each is packed from its own order too. The
residual's numerators, packed from its order n, are one int U over one
denominator D; it starts as the basis product of the tuple (0, ..., 0, k),
u_{m-1}**k of order k*ord(u_{m-1}). A step U := s*U - r*P lines U's lowest
term up with P's, whatever shift the lift checks between them, and decodes
nothing. Under a bound B on the residual's numerators, U = U_n + 2**W*R with
0 < |U_n| < 2**W, so U's lowest set bit lies in its first digit, and U_n,
kept with U, is its low W bits read as a signed digit. A step zeroes that
digit, so the next order is n + v2(U)//W and the next U_n the digit there:
both are read off U's low ``_ORDER_DIGITS`` digits, masked out as a small
int whose lowest set bit is U's unless they are all zero, and only then
off the whole of U. A product's numerators are at most
prod_l ||N_l||_1**b_l =: B_P (each sums products of one numerator per
factor); the residual starts with the start product's
B = B_P = ||N_{m-1}||_1**k; a step gives B := s*B + |r|*B_P. Since B
grows, W starts ``_WIDTH_SLACK`` bits above B and every basis numerator.
A step whose new B would reach 2**(W-1) repacks first: U is decoded (the old B
still holds, so every digit reads back), U/D is reduced to its canonical
form, U_n is read off it, and the level is packed again at the width of
the reduced numerators times |P_n| + B_P. Since s <= |P_n| and
|r| <= the reduced |U_n|, that bounds the step's new B whatever the
reduction left. A repack is the only place U/D is reduced: reducing keeps
the numerators small and changes no value, so the coefficient
a = -U_n*d_p / (D*P_n) that the step returns is the same rational either
way.

The order of the zero polynomial and deg_y of the zero polynomial are both
the ``INFINITY`` sentinel (a symbolic value, deliberately not a float,
with no order); callers test it with ``is``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import InvariantError

Coeff = int | Fraction


class _Infinity:
    """Order/degree sentinel of the zero polynomial. It has no order: test
    it with ``is``; comparing it with < or > raises TypeError."""

    __slots__ = ()

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


def _norm_coeff(c) -> Coeff:
    """Coerce to int | Fraction, collapsing integral fractions to int; a
    bool is no coefficient."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """Exact a/b over the rationals."""
    if not b:
        raise ZeroDivisionError("coefficient division by zero")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return _norm_coeff(Fraction(a) / Fraction(b))


# ---------------------------------------------------------------------------
# polynomials: integer numerators over one denominator
# ---------------------------------------------------------------------------

class _IntMapPoly:
    """The canonical form both polynomial types share (see the module
    docstring). A subclass sets ``_ONE_KEY``, checks its keys in ``_key``,
    and defines its own ``__mul__``, which handles scalars by ``_scale``.
    The two products are one schoolbook loop, written out in each with its
    own key sum: a shared loop that adds keys through a callback is slower.
    The module docstring gives ``BiPoly``'s packed route."""

    __slots__ = ("_c", "_d")

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, v in items:
            key = self._key(key)
            if type(v) is not int and not isinstance(v, Fraction):
                v = _norm_coeff(v)      # a bool raises its TypeError
            if key in acc:
                acc[key] += v
            else:
                acc[key] = v
        d = lcm(*(v.denominator for v in acc.values()))
        self._c = {k: v.numerator * (d // v.denominator)
                   for k, v in acc.items() if v}
        self._d = d

    @classmethod
    def _raw(cls, c: dict, d: int = 1):
        p = object.__new__(cls)
        p._c = c
        p._d = d
        return p

    @classmethod
    def _reduced(cls, c: dict, d: int):
        """The canonical form of c/d: c's nonzero values and d > 0 share no
        factor."""
        if d != 1:
            g = gcd(d, *c.values())
            if g != 1:
                c = {k: v // g for k, v in c.items()}
                d //= g
        return cls._raw(c, d)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({cls._ONE_KEY: 1})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def terms(self):
        d = self._d
        if d == 1:
            return self._c.items()
        return {k: coeff_div(v, d) for k, v in self._c.items()}.items()

    def coeff(self, key) -> Coeff:
        return coeff_div(self._c.get(key, 0), self._d)

    def __eq__(self, other):
        return (type(other) is type(self) and self._d == other._d
                and self._c == other._c)

    __hash__ = None

    def __bool__(self):
        return bool(self._c)

    def __neg__(self):
        return self._raw({k: -v for k, v in self._c.items()}, self._d)

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        a, da = self._c, self._d
        b, db = other._c, other._d
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        out = {k: v * ma for k, v in a.items()} if ma != 1 else dict(a)
        for k, v in b.items():
            w = out.get(k, 0) + v * mb
            if w:
                out[k] = w
            else:
                del out[k]
        return self._reduced(out, da * ma)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._combine(other, -1)

    def _scale(self, s):
        """self * s for a scalar s; NotImplemented for anything else."""
        if not isinstance(s, (int, Fraction)):
            return NotImplemented
        s = _norm_coeff(s)              # a bool raises its TypeError
        if not s:
            return self.zero()
        n = s.numerator
        return self._reduced({k: v * n for k, v in self._c.items()},
                             self._d * s.denominator)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.one() if out is None else out


# ---------------------------------------------------------------------------
# univariate polynomials in t
# ---------------------------------------------------------------------------

class UniPoly(_IntMapPoly):
    """Sparse exact polynomial in a single variable t, stored as an integer
    map from exponents over one denominator and multiplied by schoolbook
    over the numerators (see the module docstring)."""

    __slots__ = ()
    _ONE_KEY = 0

    @staticmethod
    def _key(e):
        if type(e) is not int or e < 0:
            raise ValueError(f"exponent must be a non-negative int, got {e!r}")
        return e

    def order(self):
        """Minimal exponent with nonzero coefficient; INFINITY for 0."""
        return min(self._c) if self._c else INFINITY

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._c)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            a, b = self._c, other._c
            if len(a) > len(b):
                a, b = b, a
            b = list(b.items())
            out = {}
            get = out.get
            for e1, v1 in a.items():
                for e2, v2 in b:
                    e = e1 + e2
                    out[e] = get(e, 0) + v1 * v2
            return UniPoly._reduced({e: v for e, v in out.items() if v},
                                    self._d * other._d)
        return self._scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        if not self._c:
            return "UniPoly(0)"
        bits = [f"{v}*t^{e}" for e, v in sorted(self.terms())]
        return "UniPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# bivariate polynomials in (x, y)
# ---------------------------------------------------------------------------

# the packed product needs this many term pairs per pair of operand rows
# and per digit it packs, or it leaves the product to the loop
_PACKED_FILL = 4


def _row_ranges(keys) -> dict[int, list[int]]:
    """{y: [lowest x, highest x]} over the keys (x, y)."""
    rows = {}
    for x, y in keys:
        r = rows.get(y)
        if r is None:
            rows[y] = [x, x]
        elif x < r[0]:
            r[0] = x
        elif x > r[1]:
            r[1] = x
    return rows


def _skewed_product(a: dict, b: dict) -> dict | None:
    """The product of the numerator maps a and b by one int product at the
    key x + s*y (see the module docstring), or None when the packing is too
    sparse to pay; ``a is b`` squares."""
    pairs = len(a) * len(b)
    # the digit test below at its least digit count: the product has at
    # least as many digits as either operand has terms
    if not pairs or _PACKED_FILL * max(len(a), len(b)) > pairs:
        return None
    ra = _row_ranges(a)
    rb = ra if b is a else _row_ranges(b)
    if _PACKED_FILL * len(ra) * len(rb) > pairs:
        return None
    rows = {}                   # the product's, from each pair of operand rows
    for ya, (la, ha) in ra.items():
        for yb, (lb, hb) in rb.items():
            r = rows.get(ya + yb)
            if r is None:
                rows[ya + yb] = [la + lb, ha + hb]
            else:
                if la + lb < r[0]:
                    r[0] = la + lb
                if ha + hb > r[1]:
                    r[1] = ha + hb
    ys = sorted(rows)
    s = max([1] + [(rows[y0][1] - rows[y1][0]) // (y1 - y0) + 1
                   for y0, y1 in zip(ys, ys[1:])])
    lo = rows[ys[0]][0] + s * ys[0]
    n = rows[ys[-1]][1] + s * ys[-1] - lo + 1
    if _PACKED_FILL * n > pairs:
        return None
    va, vb = a.values(), b.values()
    w = _width(min(sum(map(abs, va)) * max(map(abs, vb)),
                   max(map(abs, va)) * sum(map(abs, vb))))
    za = _pack({x + s * y: v for (x, y), v in a.items()}, w)
    zb = za if b is a else _pack({x + s * y: v for (x, y), v in b.items()}, w)
    digits = _unpack(za * zb, n, w)
    return {(x, y): v for y in ys for x in range(rows[y][0], rows[y][1] + 1)
            if (v := digits[x + s * y - lo])}


class BiPoly(_IntMapPoly):
    """Sparse exact polynomial in x and y, stored as an integer map from
    (x-power, y-power) over one denominator and multiplied over the
    numerators, by schoolbook or, for densely packing banded operands, by
    one packed int product (see the module docstring)."""

    __slots__ = ()
    _ONE_KEY = (0, 0)

    @staticmethod
    def _key(key):
        a, b = key
        if type(a) is not int or type(b) is not int or a < 0 or b < 0:
            raise ValueError(f"exponent pair must be non-negative ints, got {key!r}")
        return a, b

    @classmethod
    def y(cls, b: int = 1) -> "BiPoly":
        return cls.monomial(0, b)

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Coeff = 1) -> "BiPoly":
        return cls({(a, b): coeff})

    def __len__(self):
        return len(self._c)

    def support(self) -> frozenset:
        return frozenset(self._c)

    def deg_y(self):
        """Max y-power in the support; INFINITY sentinel for the zero
        polynomial (callers must branch on it explicitly)."""
        if not self._c:
            return INFINITY
        return max(b for _, b in self._c)

    def partial_y(self) -> "BiPoly":
        """Formal partial derivative with respect to y (exponent shift)."""
        c = {(a, b - 1): v * b for (a, b), v in self._c.items() if b}
        return BiPoly._reduced(c, self._d)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            a, b = self._c, other._c
            out = _skewed_product(a, b)
            if out is not None:
                return BiPoly._reduced(out, self._d * other._d)
            if len(a) > len(b):
                a, b = b, a
            b = list(b.items())
            out = {}
            get = out.get
            for (a1, b1), v1 in a.items():
                for (a2, b2), v2 in b:
                    k = (a1 + a2, b1 + b2)
                    out[k] = get(k, 0) + v1 * v2
            return BiPoly._reduced({k: v for k, v in out.items() if v},
                                   self._d * other._d)
        return self._scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        if not self._c:
            return "BiPoly(0)"
        bits = [f"{v}*x^{a}*y^{b}" for (a, b), v in sorted(self.terms())]
        return "BiPoly(" + " + ".join(bits) + ")"


def horner(coeffs, x):
    """sum_l coeffs[l] * x**l by Horner's rule, adding no zero coefficient.
    It starts from the top coefficient, so m coefficients cost m - 1
    products; with none, the sum is the zero of x's type."""
    if not coeffs:
        return x.zero()
    total = coeffs[-1]
    for c in coeffs[-2::-1]:
        total = total * x
        if c:
            total = total + c
    return total


# ---------------------------------------------------------------------------
# integer maps packed at t = 2**W, and one lift level on them
# ---------------------------------------------------------------------------

class PowerChain:
    """Grow-on-demand cache [1, base, base**2, ...] of the powers of an int;
    ``Residual`` keeps one per packed basis pullback and reads it for each
    new beta tuple's product."""

    __slots__ = ("_pows",)

    def __init__(self, base: int):
        self._pows = [1, base]

    def get(self, n: int) -> int:
        pows = self._pows
        while len(pows) <= n:
            pows.append(pows[-1] * pows[1])
        return pows[n]


# spare bits of a lift level's digit width over the bound it is sized for:
# room for the residual's bound to grow before a repack
_WIDTH_SLACK = 16
# the low digits of the residual a step reads its next order off; only
# when they are all zero does it read the lowest set bit of the whole int
_ORDER_DIGITS = 8


def _width(bound: int) -> int:
    """The least digit width W in bits, a multiple of 8, with 2**(W-1) > bound."""
    return (bound.bit_length() + 8) // 8 * 8


def _pack(c: dict, w: int) -> int:
    """The nonzero integer map c packed from its lowest exponent lo: the
    sum of c[e] * 2**(w*(e - lo)), for a width w in bits, a multiple of 8."""
    width, lo = w // 8, min(c)
    n = max(c) - lo + 1
    half = 1 << (w - 1)
    zero = half.to_bytes(width, "little")
    digits = [zero] * n
    for e, v in c.items():
        digits[e - lo] = (v + half).to_bytes(width, "little")
    return (int.from_bytes(b"".join(digits), "little")
            - int.from_bytes(zero * n, "little"))


def _unpack(z: int, n: int, w: int) -> list[int]:
    """The n signed base-2**w digits of z, lowest first, each strictly
    between minus and plus half the base. Digits carry half the base, so
    each reads back as unsigned bytes, with no borrow."""
    width = w // 8
    half = 1 << (w - 1)
    z += int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = z.to_bytes(n * width, "little")
    from_bytes = int.from_bytes
    return [from_bytes(raw[i - width:i], "little") - half
            for i in range(width, n * width + 1, width)]


class Residual:
    """One lift level at one digit width W: the basis pullbacks u_0 ..
    u_{m-1}, their powers, the products of the beta tuples met so far and
    the residual U/D, each numerator packed from its own order at t = 2**W
    (see the module docstring). ``implicitize`` checks the orders."""

    __slots__ = ("_basis", "_ends", "_w", "_window", "_pows", "_memo",
                 "_u", "_u_n", "_n", "_d", "_b")

    def __init__(self, basis: list[UniPoly], k: int):
        """The residual u_{m-1}**k, the product of (0, ..., 0, k); no u_l is 0."""
        self._basis = basis
        # per pullback: lowest numerator, denominator, and ||.||_1 of the
        # numerators, the base of every digit bound
        self._ends = [(u._c[min(u._c)], u._d, sum(map(abs, u._c.values())))
                      for u in basis]
        self._memo: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
        start = (0,) * (len(basis) - 1) + (k,)
        self._at_width(self._bound(start))
        self._n = k * basis[-1].order()
        self._u, self._u_n, self._d, self._b = self._product(start)

    def _at_width(self, bound: int) -> None:
        """Pack the basis ``_WIDTH_SLACK`` bits above ``bound`` and the basis
        numerators; drop the powers and products of the old width."""
        self._w = w = _width(max(bound, *(max(map(abs, u._c.values()))
                                          for u in self._basis)) << _WIDTH_SLACK)
        self._window = (1 << w * _ORDER_DIGITS) - 1
        self._pows = [PowerChain(_pack(u._c, w)) for u in self._basis]
        self._memo.clear()

    def _bound(self, betas: tuple[int, ...]) -> int:
        """prod_l ||N_l||_1**beta_l, which bounds the product's numerators."""
        return prod(end[2] ** b for end, b in zip(self._ends, betas))

    def _product(self, betas: tuple[int, ...]) -> tuple[int, int, int, int]:
        """prod_l u_l**beta_l as (P, p_lo, d_p, bound): its numerators packed
        from its order, the lowest of them, its denominator, and a bound on
        the numerators."""
        P, p_lo, d_p = None, 1, 1
        for (lead, d, _), chain, b in zip(self._ends, self._pows, betas):
            if b:
                P = chain.get(b) if P is None else P * chain.get(b)
                p_lo *= lead ** b
                d_p *= d ** b
        return 1 if P is None else P, p_lo, d_p, self._bound(betas)

    def order(self):
        """Lowest exponent with a nonzero term; INFINITY once U vanishes."""
        return self._n if self._u else INFINITY

    def value(self) -> UniPoly:
        """U/D, decoded, in its canonical form."""
        U, w = self._u, self._w
        digits = _unpack(U, abs(U).bit_length() // w + 1, w)
        return UniPoly._reduced({e: v for e, v in enumerate(digits, self._n) if v},
                                self._d)

    def _repack(self, grow: int) -> None:
        """Decode U, reduce U/D to its canonical form and pack the level
        again at the width whose digits hold U's numerators times ``grow``."""
        v = self.value()
        self._b = max(map(abs, v._c.values()))
        self._at_width(self._b * grow)
        self._u = _pack(v._c, self._w)
        self._u_n = v._c[self._n]
        self._d = v._d

    def eliminate(self, betas: tuple[int, ...]) -> Coeff:
        """U/D += a * t**(n - o) * P/d_p for the product P/d_p =
        prod_l u_l**beta_l of order o, fraction-free, with the a that kills
        U's lowest term t**n; return a. U and P are each packed from their
        own order, so the step never needs the shift t**(n - o): the caller
        checks that it is the pivot's x**alpha. The product is kept under
        its beta tuple, formed on the tuple's first step at the current
        width and shared by every later step with that tuple."""
        for _ in range(2):
            product = self._memo.get(betas)
            if product is None:
                product = self._memo[betas] = self._product(betas)
            P, p_n, d_p, b_p = product
            u_n = self._u_n
            g = gcd(p_n, u_n) if p_n > 0 else -gcd(p_n, u_n)
            s, r = p_n // g, u_n // g
            bound = s * self._b + abs(r) * b_p
            if bound.bit_length() < self._w:
                break
            # s <= |p_n| and |r| <= the reduced U's numerators, so the step
            # fits the repacked width
            self._repack(abs(p_n) + b_p)
        else:
            raise InvariantError("a residual step outgrew its repacked width")
        D, w = self._d, self._w
        U = (self._u if s == 1 else s * self._u) - r * P
        if U:
            low = U & self._window
            q = ((low & -low if low else U & -U).bit_length() - 1) // w
            U >>= w * q
            c = (low >> w * q if low else U) & ((1 << w) - 1)
            self._u_n = c - (1 << w) if c >> (w - 1) else c
            self._n += q
        self._u, self._d, self._b = U, D * s, bound
        return coeff_div(-u_n * d_p, D * p_n)


# ---------------------------------------------------------------------------
# exact division and fraction-free determinants
# ---------------------------------------------------------------------------
# The pipeline does not call these: the tests build the classical Sylvester
# resultant from them, the reference the norm oracle is compared against.

def _glex(key):
    """Graded-lex order key on (x-power, y-power), y before x."""
    a, b = key
    return (a + b, b)


def bipoly_exact_div(num: BiPoly, den: BiPoly) -> BiPoly:
    """Exact quotient num/den in the bivariate polynomial ring.

    Raises ArithmeticError if den does not divide num.
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dterms = dict(den.terms())
    dlead = max(dterms, key=_glex)
    dlv = dterms[dlead]
    da, db = dlead
    rem = dict(num.terms())
    quo = {}
    while rem:
        la, lb = lead = max(rem, key=_glex)
        if la < da or lb < db:
            raise ArithmeticError("leading term does not divide: inexact division")
        qk = (la - da, lb - db)
        qv = coeff_div(rem[lead], dlv)
        quo[qk] = qv
        qa, qb = qk
        for (ta, tb), tv in dterms.items():
            k = (ta + qa, tb + qb)
            w = rem.get(k, 0) - qv * tv
            if w:
                rem[k] = w
            else:
                rem.pop(k, None)
    return BiPoly(quo)


def sylvester_det(rows: list[list[BiPoly]]) -> BiPoly:
    """Exact determinant of a square matrix over the bivariate ring.

    Fraction-free single-step Bareiss elimination with row pivoting: step
    k pivots on the entry of column k, at or below row k, with the fewest
    terms. All interior divisions are exact.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return BiPoly.one()
    m = [list(row) for row in rows]
    sign = 1
    prev = BiPoly.one()
    for k in range(n - 1):
        pi = min((i for i in range(k, n) if m[i][k]),
                 key=lambda i: len(m[i][k]), default=None)
        if pi is None:
            return BiPoly.zero()
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        piv = m[k][k]
        piv_is_prev = piv == prev
        for i in range(k + 1, n):
            mi = m[i]
            lik = mi[k]
            if not lik:
                if not piv_is_prev:
                    for j in range(k + 1, n):
                        if mi[j]:
                            mi[j] = bipoly_exact_div(piv * mi[j], prev)
            else:
                mk = m[k]
                for j in range(k + 1, n):
                    num = piv * mi[j] - lik * mk[j]
                    mi[j] = bipoly_exact_div(num, prev) if num else num
                mi[k] = BiPoly.zero()
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
