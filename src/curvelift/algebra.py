"""Exact arithmetic kernel: rationals, sparse polynomials, determinants.

Coefficients are exact rationals: integral values are plain ``int`` and
everything else is ``fractions.Fraction``; the two mix freely under
Python's numeric tower. ``terms()`` and ``coeff()`` of both polynomial
types return values of that form. Polynomials are immutable.

``BiPoly`` is a sparse map from pairs ``(a, b)`` (a = x-power, b =
y-power) to nonzero coefficients, stored in that form.

``UniPoly`` (polynomials in t) stores one denominator ``_d > 0`` and a
map ``_c`` from exponents ``e >= 0`` to nonzero integer numerators; the
coefficient of t**e is ``_c[e] / _d``. The form is canonical:
``gcd(_d, *_c.values()) == 1`` and zero is ``({}, 1)``, so equal
polynomials have equal fields. ``+`` and ``-`` rescale the numerators to
the lcm of the two denominators, scalar ``*`` scales numerators and
denominator, and each reduces once with one ``gcd``. A product
of two polynomials is one bigint multiply (Kronecker substitution): each
side's numerators become the base-2**w digits of one signed int, and the
digits of the product are the product's numerators. A product
coefficient sums at most ``m = min(len(a), len(b))`` terms, each below
``2**(bits(max|a|) + bits(max|b|))``, so with ``w = bits(max|a|) +
bits(max|b|) + bits(m) + 1`` every digit lies strictly between
``-2**(w-1)`` and ``2**(w-1)``: it never overflows into its neighbour,
and the digits are read back exactly.

The order of the zero polynomial and deg_y of the zero polynomial are both
the ``INFINITY`` sentinel (a symbolic value, deliberately not a float);
callers must branch on it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rat = Fraction
Coeff = int | Fraction


class _Infinity:
    """Order/degree sentinel: compares greater than every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


def _norm_coeff(c) -> Coeff:
    """Coerce to int | Fraction, collapsing integral fractions to int."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _norm_values(c: dict) -> dict:
    """Collapse the integral fractions among c's values to int, in place."""
    for key, v in c.items():
        if type(v) is not int and v.denominator == 1:
            c[key] = v.numerator
    return c


def coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """Exact a/b over the rationals."""
    if not b:
        raise ZeroDivisionError("coefficient division by zero")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return _norm_coeff(Fraction(a) / Fraction(b))


# ---------------------------------------------------------------------------
# univariate polynomials in t
# ---------------------------------------------------------------------------

class UniPoly:
    """Sparse exact polynomial in a single variable t, stored as an integer
    map over one denominator (see the module docstring)."""

    __slots__ = ("_c", "_d")

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, v in items:
            if type(e) is not int or e < 0:
                raise ValueError(f"exponent must be a non-negative int, got {e!r}")
            if not isinstance(v, (int, Fraction)):
                raise TypeError(
                    f"coefficient must be int or Fraction, got {type(v).__name__}")
            acc[e] = acc.get(e, 0) + v
        d = lcm(*(v.denominator for v in acc.values()))
        self._c = {e: v.numerator * (d // v.denominator)
                   for e, v in acc.items() if v}
        self._d = d

    @classmethod
    def _raw(cls, c: dict, d: int = 1) -> "UniPoly":
        p = object.__new__(cls)
        p._c = c
        p._d = d
        return p

    @classmethod
    def _reduced(cls, c: dict, d: int) -> "UniPoly":
        """The canonical form of c/d: c's nonzero values and d > 0 share no
        factor."""
        if d != 1:
            g = gcd(d, *c.values())
            if g != 1:
                c = {e: v // g for e, v in c.items()}
                d //= g
        return cls._raw(c, d)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "UniPoly":
        return cls._raw({0: 1})

    @classmethod
    def t(cls, exp: int = 1, coeff: Coeff = 1) -> "UniPoly":
        """The monomial coeff * t**exp."""
        return cls({exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def terms(self):
        d = self._d
        if d == 1:
            return self._c.items()
        return {e: coeff_div(v, d) for e, v in self._c.items()}.items()

    def coeff(self, e: int) -> Coeff:
        return coeff_div(self._c.get(e, 0), self._d)

    def order(self):
        """Minimal exponent with nonzero coefficient; INFINITY for 0."""
        return min(self._c) if self._c else INFINITY

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(self._c)

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self._d == other._d
                and self._c == other._c)

    __hash__ = None

    def __bool__(self):
        return bool(self._c)

    def __neg__(self):
        return UniPoly._raw({e: -v for e, v in self._c.items()}, self._d)

    def _combine(self, other, sign: int) -> "UniPoly":
        """self + sign * other over the lcm of the two denominators."""
        a, da = self._c, self._d
        b, db = other._c, other._d
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        out = {e: v * ma for e, v in a.items()} if ma != 1 else dict(a)
        for e, v in b.items():
            w = out.get(e, 0) + v * mb
            if w:
                out[e] = w
            else:
                del out[e]
        return UniPoly._reduced(out, da * ma)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            a, b = self._c, other._c
            if not a or not b:
                return UniPoly.zero()
            return UniPoly._reduced(_kronecker_mul(a, b), self._d * other._d)
        if isinstance(other, (int, Fraction)):
            if not other:
                return UniPoly.zero()
            s, sd = other.numerator, other.denominator
            return UniPoly._reduced({e: v * s for e, v in self._c.items()},
                                    self._d * sd)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = UniPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __repr__(self):
        if not self._c:
            return "UniPoly(0)"
        bits = [f"{v}*t^{e}" for e, v in sorted(self.terms())]
        return "UniPoly(" + " + ".join(bits) + ")"


def _kronecker_mul(a: dict, b: dict) -> dict:
    """The product of two nonzero integer polynomials {exponent: value},
    as one bigint multiply (Kronecker substitution). Each side is packed
    from its lowest exponent up; the digit width w, rounded up to whole
    bytes, is the bound derived in the module docstring."""
    lo_a, lo_b = min(a), min(b)
    n_a, n_b = max(a) - lo_a + 1, max(b) - lo_b + 1
    bits = (max(map(abs, a.values())).bit_length()
            + max(map(abs, b.values())).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    z = _pack(a, lo_a, n_a, width) * _pack(b, lo_b, n_b, width)
    return _unpack(z, lo_a + lo_b, n_a + n_b - 1, width)


def _pack(c: dict, lo: int, n: int, width: int) -> int:
    """Sum of c[e] * 256**(width * (e - lo)): the positive and the
    negative values go into two byte strings, one int each."""
    pos = bytearray(n * width)
    neg = None
    for e, v in c.items():
        i = (e - lo) * width
        if v > 0:
            pos[i:i + width] = v.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(n * width)
            neg[i:i + width] = (-v).to_bytes(width, "little")
    z = int.from_bytes(pos, "little")
    return z if neg is None else z - int.from_bytes(neg, "little")


def _unpack(z: int, lo: int, n: int, width: int) -> dict:
    """The n signed base-256**width digits of z, as {lo + k: digit}
    without the zero digits; the inverse of _pack."""
    raw = z.to_bytes(n * width, "little", signed=True)
    half = 1 << (8 * width - 1)
    base = half << 1
    from_bytes = int.from_bytes
    out = {}
    borrow = 0
    for k in range(n):
        i = k * width
        v = from_bytes(raw[i:i + width], "little") + borrow
        if v >= half:
            v -= base
            borrow = 1
        else:
            borrow = 0
        if v:
            out[lo + k] = v
    return out


# ---------------------------------------------------------------------------
# bivariate polynomials in (x, y)
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse exact polynomial in x and y; keys are (x-power, y-power)."""

    __slots__ = ("_c",)

    def __init__(self, terms=()):
        c = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, v in items:
            a, b = key
            if type(a) is not int or type(b) is not int or a < 0 or b < 0:
                raise ValueError(f"exponent pair must be non-negative ints, got {key!r}")
            key = (a, b)
            v = _norm_coeff(c.get(key, 0) + _norm_coeff(v))
            if v:
                c[key] = v
            else:
                c.pop(key, None)
        self._c = c

    @classmethod
    def _raw(cls, c: dict) -> "BiPoly":
        f = object.__new__(cls)
        f._c = c
        return f

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls._raw({(0, 0): 1})

    @classmethod
    def const(cls, c: Coeff) -> "BiPoly":
        c = _norm_coeff(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def x(cls, a: int = 1) -> "BiPoly":
        return cls.monomial(a, 0)

    @classmethod
    def y(cls, b: int = 1) -> "BiPoly":
        return cls.monomial(0, b)

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Coeff = 1) -> "BiPoly":
        coeff = _norm_coeff(coeff)
        if not coeff:
            return cls.zero()
        if a < 0 or b < 0:
            raise ValueError("negative exponent")
        return cls._raw({(a, b): coeff})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def terms(self):
        return self._c.items()

    def __len__(self):
        return len(self._c)

    def coeff(self, key) -> Coeff:
        return self._c.get(key, 0)

    def support(self) -> frozenset:
        return frozenset(self._c)

    def deg_y(self):
        """Max y-power in the support; INFINITY sentinel for the zero
        polynomial (callers must branch on it explicitly)."""
        if not self._c:
            return INFINITY
        return max(b for _, b in self._c)

    def order(self):
        """Order (total degree of the lowest homogeneous part); INFINITY
        for the zero polynomial."""
        if not self._c:
            return INFINITY
        return min(a + b for a, b in self._c)

    def y_coefficient(self, b: int) -> dict:
        """The x-polynomial coefficient of y**b, as a dict a -> coeff."""
        return {a: v for (a, bb), v in self._c.items() if bb == b}

    def partial_y(self) -> "BiPoly":
        """Formal partial derivative with respect to y (exponent shift)."""
        out = {}
        for (a, b), v in self._c.items():
            if b:
                out[(a, b - 1)] = _norm_coeff(v * b)
        return BiPoly._raw(out)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self._c == other._c

    __hash__ = None

    def __bool__(self):
        return bool(self._c)

    def __neg__(self):
        return BiPoly._raw({k: -v for k, v in self._c.items()})

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, v in b.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = _norm_coeff(w)
            else:
                del out[k]
        return BiPoly._raw(out)

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._c)
        for k, v in other._c.items():
            w = out.get(k, 0) - v
            if w:
                out[k] = _norm_coeff(w)
            else:
                del out[k]
        return BiPoly._raw(out)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            a, b = self._c, other._c
            if not a or not b:
                return BiPoly.zero()
            if len(a) > len(b):
                a, b = b, a
            out = {}
            for (a1, b1), v1 in a.items():
                for (a2, b2), v2 in b.items():
                    k = (a1 + a2, b1 + b2)
                    w = out.get(k, 0) + v1 * v2
                    if w:
                        out[k] = w
                    else:
                        del out[k]
            return BiPoly._raw(_norm_values(out))
        if isinstance(other, (int, Fraction)):
            s = _norm_coeff(other)
            if not s:
                return BiPoly.zero()
            return BiPoly._raw({k: _norm_coeff(v * s) for k, v in self._c.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __repr__(self):
        if not self._c:
            return "BiPoly(0)"
        bits = [f"{v}*x^{a}*y^{b}" for (a, b), v in sorted(self._c.items())]
        return "BiPoly(" + " + ".join(bits) + ")"


class PowerChain:
    """Grow-on-demand cache of the powers base**0, base**1, ...; ``lift``
    keeps one per basis pullback, reused by every iteration's product."""

    __slots__ = ("_base", "_pows")

    def __init__(self, base, one):
        self._base = base
        self._pows = [one]

    def get(self, n: int):
        pows = self._pows
        while len(pows) <= n:
            pows.append(pows[-1] * self._base)
        return pows[n]


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
    if num.is_zero:
        return BiPoly.zero()
    dterms = den._c
    if len(dterms) == 1:
        ((da, db), dv), = dterms.items()
        out = {}
        for (a, b), v in num._c.items():
            if a < da or b < db:
                raise ArithmeticError("monomial does not divide a term")
            out[(a - da, b - db)] = coeff_div(v, dv)
        return BiPoly._raw(out)

    dlead = max(dterms, key=_glex)
    dlv = dterms[dlead]
    da, db = dlead
    rem = dict(num._c)
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
    return BiPoly._raw(quo)


def sylvester_det(rows: list[list[BiPoly]]) -> BiPoly:
    """Exact determinant of a square matrix over the bivariate ring.

    Fraction-free single-step Bareiss elimination with full pivoting;
    the pivot with the fewest terms is preferred, which keeps the sparse
    band structure of Sylvester matrices cheap. All interior divisions
    are exact.
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
        # pivot: nonzero entry of the trailing submatrix with fewest terms
        best = None
        for i in range(k, n):
            mi = m[i]
            for j in range(k, n):
                e = mi[j]
                if e._c:
                    size = (len(e._c), _glex(max(e._c, key=_glex)))
                    if best is None or size < best[0]:
                        best = (size, i, j)
        if best is None:
            return BiPoly.zero()
        _, pi, pj = best
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        if pj != k:
            for row in m:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        piv = m[k][k]
        piv_is_prev = piv == prev
        for i in range(k + 1, n):
            mi = m[i]
            lik = mi[k]
            if not lik._c:
                if not piv_is_prev:
                    for j in range(k + 1, n):
                        if mi[j]._c:
                            mi[j] = bipoly_exact_div(piv * mi[j], prev)
            else:
                mk = m[k]
                for j in range(k + 1, n):
                    num = piv * mi[j] - lik * mk[j]
                    mi[j] = bipoly_exact_div(num, prev) if num._c else num
                mi[k] = BiPoly.zero()
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
