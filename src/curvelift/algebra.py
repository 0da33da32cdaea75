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
each reduces once with one ``gcd``. Only the products differ. A
``UniPoly`` product of any number of factors f_1 .. f_m is one bigint
product (Kronecker substitution): numerators become the base-2**w digits
of one signed int each, and the digits of the product are the product's
numerators. Evaluation at 2**w is a ring homomorphism, so only the final
decode needs a bound. A product coefficient sums at most ``prod_{j != L}
len(f_j)`` terms (L a longest factor), each below ``2**sum_j
bits(max|f_j|)``, so with ``w = sum_j bits(max|f_j|) + sum_{j != L}
bits(len(f_j)) + 1`` every digit lies strictly between ``-2**(w-1)`` and
``2**(w-1)``: it never overflows into its neighbour, and the digits are
read back exactly. A monomial factor ``t**shift`` is never packed:
``Residual.eliminate`` adds the shift to the product's lowest exponent.
A ``BiPoly`` product is schoolbook over the numerators: its operands are
sparse in two variables, so packing them into one int costs more than the
term pairs it saves.

The order of the zero polynomial and deg_y of the zero polynomial are both
the ``INFINITY`` sentinel (a symbolic value, deliberately not a float);
callers must branch on it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    and defines its own ``__mul__``, which handles scalars by ``_scale``."""

    __slots__ = ("_c", "_d")

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, v in items:
            key = self._key(key)
            if type(v) is not int and not isinstance(v, Fraction):
                v = _norm_coeff(v)      # a bool raises its TypeError
            acc[key] = acc.get(key, 0) + v
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
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


# ---------------------------------------------------------------------------
# univariate polynomials in t
# ---------------------------------------------------------------------------

class UniPoly(_IntMapPoly):
    """Sparse exact polynomial in a single variable t, stored as an integer
    map over one denominator and multiplied by Kronecker substitution (see
    the module docstring)."""

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
            if not a or not b:
                return UniPoly.zero()
            lo, digits = _kronecker_mul((a, b))
            c = {e: v for e, v in enumerate(digits, lo) if v}
            return UniPoly._reduced(c, self._d * other._d)
        return self._scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        if not self._c:
            return "UniPoly(0)"
        bits = [f"{v}*t^{e}" for e, v in sorted(self.terms())]
        return "UniPoly(" + " + ".join(bits) + ")"


def _kronecker_mul(maps) -> tuple[int, list[int]]:
    """The product of nonzero integer polynomials {exponent: value}, as its
    lowest exponent and its coefficients from there up (see the module
    docstring); no factors give (0, [1]). Digits carry half the base, so
    each reads back as unsigned bytes, with no borrow."""
    bits = 1 - max(map(len, maps), default=0).bit_length()
    for m in maps:
        bits += max(map(abs, m.values())).bit_length() + len(m).bit_length()
    width = (bits + 7) // 8
    z, lo, n = 1, 0, 1
    for m in maps:
        lo_m = min(m)
        n_m = max(m) - lo_m + 1
        z *= _pack(m, lo_m, n_m, width)
        lo += lo_m
        n += n_m - 1
    half = 1 << (8 * width - 1)
    z += int.from_bytes(half.to_bytes(width, "little") * n, "little")
    raw = z.to_bytes(n * width, "little")
    from_bytes = int.from_bytes
    return lo, [from_bytes(raw[i - width:i], "little") - half
                for i in range(width, n * width + 1, width)]


def _pack(c: dict, lo: int, n: int, width: int) -> int:
    """Sum of c[e] * 256**(width * (e - lo)) over the n digits from lo."""
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    digits = [zero] * n
    for e, v in c.items():
        digits[e - lo] = (v + half).to_bytes(width, "little")
    return (int.from_bytes(b"".join(digits), "little")
            - int.from_bytes(zero * n, "little"))


# ---------------------------------------------------------------------------
# bivariate polynomials in (x, y)
# ---------------------------------------------------------------------------

class BiPoly(_IntMapPoly):
    """Sparse exact polynomial in x and y, stored as an integer map from
    (x-power, y-power) over one denominator and multiplied by schoolbook
    over the numerators (see the module docstring)."""

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
            if not a or not b:
                return BiPoly.zero()
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


class PowerChain:
    """Grow-on-demand cache of the powers base**0, base**1, ...; ``lift``
    keeps one per basis pullback and reads it for each new beta tuple's
    product."""

    __slots__ = ("_base", "_pows")

    def __init__(self, base):
        self._base = base
        self._pows = [base.one()]

    def get(self, n: int):
        pows = self._pows
        while len(pows) <= n:
            pows.append(pows[-1] * self._base)
        return pows[n]


class Residual:
    """The pullback ``lift`` eliminates, lowest term first: a dense list of
    int numerators over exponents 0 .. bound and one denominator, canonical
    as in the module docstring. ``implicitize`` describes the step."""

    __slots__ = ("_u", "_d", "_n")

    def __init__(self, u: UniPoly, bound: int):
        self._u = [0] * (max(bound, max(u._c, default=0)) + 1)
        for e, v in u._c.items():
            self._u[e] = v
        self._d, self._n = u._d, 0

    def order(self):
        """Lowest exponent with a nonzero term; INFINITY once u vanishes."""
        U, n = self._u, self._n
        while n < len(U) and not U[n]:
            n += 1
        self._n = n
        return n if n < len(U) else INFINITY

    def eliminate(self, product, shift: int):
        """u += a * t**shift * P/d_p, fraction-free, with the a that kills
        u's lowest term; return a, or None unless the shifted product has
        exactly u's order and fits in the bound. ``product`` is (lo, P,
        d_p): the lowest exponent of the unshifted product, its int
        numerators from there up and its denominator. ``lift`` shares one
        product among every step of its beta tuple, so P is only read."""
        U, D, n = self._u, self._d, self.order()
        lo, P, d_p = product
        end = n + len(P)
        if lo + shift != n or end > len(U):
            return None
        p_n, u_n = P[0], U[n]
        g = gcd(p_n, u_n) if p_n > 0 else -gcd(p_n, u_n)
        s, r = p_n // g, u_n // g
        if s != 1:
            U[n:] = [v * s for v in U[n:]]
            self._d = D * s
        U[n:end] = [x - r * v for x, v in zip(U[n:end], P)]
        if self._d != 1 and (g := gcd(self._d, *U[n:])) != 1:
            U[n:] = [v // g for v in U[n:]]
            self._d //= g
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
    if num.is_zero:
        return BiPoly.zero()
    dterms = dict(den.terms())
    if len(dterms) == 1:
        ((da, db), dv), = dterms.items()
        out = {}
        for (a, b), v in num.terms():
            if a < da or b < db:
                raise ArithmeticError("monomial does not divide a term")
            out[(a - da, b - db)] = coeff_div(v, dv)
        return BiPoly(out)

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
                if e:
                    size = (len(e), _glex(max(e.support(), key=_glex)))
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
