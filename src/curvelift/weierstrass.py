"""Weierstrass division and the derived basis decompositions.

Division by a Weierstrass polynomial (monic in y, all lower y-coefficients
vanishing at x = 0) is plain long division in y over the exact rationals:
monicity keeps quotient and remainder polynomial in both variables. On top
of it sit two decompositions used throughout the elimination machinery:

* the adic decomposition  g = sum a_l * f^l  with deg_y(a_l) < deg_y(f),
  obtained by dividing by the highest useful power of f first;
* the full basis decomposition flattening g into exact rational multiples
  of  x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}.

Both are unique, and both reconstruct their input exactly by Horner's rule
in f, forming no power of f; the basis reconstruction is the adic one
applied level by level. lift sums its iteration log, a list of basis
terms, into delta_i with basis_reconstruct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BiPoly, Coeff
from .errors import DegreeOutOfRangeError, DegreeTooSmallError, NotWeierstrassError


def is_weierstrass(p: BiPoly) -> tuple[bool, int]:
    """Whether p is a Weierstrass polynomial in y; returns (flag, deg_y)."""
    if p.is_zero:
        return False, -1
    m = p.deg_y()
    if m < 1 or p.coeff((0, m)) != 1:
        return False, m
    for (a, b), _ in p.terms():
        if b == m and a != 0:
            return False, m      # not monic: x-dependence at the top power
        if b < m and a == 0:
            return False, m      # lower coefficient does not vanish at x = 0
    return True, m


def _div_y(g: BiPoly, p: BiPoly, m: int) -> tuple[BiPoly, BiPoly]:
    """Long division of g by p, monic in y of degree m; needs deg_y(g) >= m
    or g = 0. No coefficient divisions occur."""
    q = BiPoly.zero()
    r = g
    while not r.is_zero and r.deg_y() >= m:
        d = r.deg_y()
        lead = BiPoly({(a, d - m): v for a, v in r.y_coefficient(d).items()})
        q = q + lead
        r = r - lead * p
    return q, r


def weierstrass_divide(g: BiPoly, p: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Divide g by a Weierstrass polynomial p: g = q*p + r, deg_y(r) < deg_y(p).

    Requires deg_y(g) > deg_y(p) >= 1; the quotient satisfies
    deg_y(q) <= deg_y(g) - deg_y(p) and both q, r stay polynomial in x and y.
    """
    ok, m = is_weierstrass(p)
    if not ok:
        raise NotWeierstrassError(f"divisor is not Weierstrass in y: {p!r}")
    if not g.is_zero and g.deg_y() <= m:
        raise DegreeTooSmallError(
            f"deg_y(dividend) = {g.deg_y()} <= deg_y(divisor) = {m}")
    q, r = _div_y(g, p, m)
    return q, r


@dataclass(frozen=True)
class AdicDecomposition:
    """g = sum_l coeffs[l] * f^l with deg_y(coeffs[l]) < deg_y(f)."""

    level: int
    coeffs: tuple[BiPoly, ...]   # a_0, ..., a_d

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1


def _f_prev(chain, i: int) -> BiPoly:
    """f_{i-1} out of a chain (f_0 = y)."""
    return BiPoly.y() if i == 1 else chain.fs[i - 2]


def adic_decompose(g: BiPoly, chain, i: int) -> AdicDecomposition:
    """Decompose g (deg_y < e_i) in powers of f_{i-1}.

    Divides by the highest power f_{i-1}**d with d*e_{i-1} <= deg_y(g)
    first, then recurses into the remainder; the zero polynomial
    decomposes trivially.
    """
    cd = chain.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    e_i, e_prev = cd.es[i], cd.es[i - 1]
    if g.is_zero:
        return AdicDecomposition(level=i, coeffs=(BiPoly.zero(),))
    n = g.deg_y()
    if n >= e_i:
        raise DegreeOutOfRangeError(f"deg_y(g) = {n} >= e_{i} = {e_i}")
    f = _f_prev(chain, i)
    d = n // e_prev
    coeffs = [BiPoly.zero()] * (d + 1)
    r = g
    while not r.is_zero and r.deg_y() >= e_prev:
        dd = r.deg_y() // e_prev
        q, r = _div_y(r, f ** dd, dd * e_prev)
        coeffs[dd] = q
    coeffs[0] = r
    return AdicDecomposition(level=i, coeffs=tuple(coeffs))


def _horner(coeffs, f: BiPoly) -> BiPoly:
    """sum_l coeffs[l] * f**l by Horner's rule."""
    total = BiPoly.zero()
    for a in reversed(coeffs):
        total = total * f + a
    return total


def adic_reconstruct(dec: AdicDecomposition, chain) -> BiPoly:
    return _horner(dec.coeffs, _f_prev(chain, dec.level))


BasisTerm = tuple[Coeff, tuple[int, ...]]  # (coefficient, (alpha, beta_0, ..., beta_{i-1}))


def basis_decompose(g: BiPoly, chain, i: int) -> list[BasisTerm]:
    """Flatten g (deg_y < e_i) into the monomial-by-powers basis
    x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}.

    Recursion on the adic decomposition; the exponent caps beta_0 < e_1 and
    beta_l < k_{l+1} hold by construction. Terms are sorted by exponent
    tuple; the reconstruction is exact.
    """
    cd = chain.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    if not g.is_zero and g.deg_y() >= cd.es[i]:
        raise DegreeOutOfRangeError(f"deg_y(g) = {g.deg_y()} >= e_{i} = {cd.es[i]}")

    def rec(h: BiPoly, lvl: int) -> list[BasisTerm]:
        if h.is_zero:
            return []
        if lvl == 1:
            # deg_y(h) < e_1 here: h is already a sum of x**a * y**beta_0
            return [(v, key) for key, v in h.terms()]
        out = []
        for l, a_l in enumerate(adic_decompose(h, chain, lvl).coeffs):
            for c, exps in rec(a_l, lvl - 1):
                out.append((c, exps + (l,)))
        return out

    terms = rec(g, i)
    terms.sort(key=lambda t: t[1])
    return terms


def basis_reconstruct(terms: list[BasisTerm], fs) -> BiPoly:
    """Sum c * x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}
    over the terms; ``fs`` holds the polynomials f_1, ..., f_{i-1}, and any
    exponents are accepted. The terms are grouped by beta_{i-1}, each group
    is rebuilt over f_1 .. f_{i-2}, and the groups are summed by Horner's
    rule in f_{i-1}; at the bottom they are sums of x**alpha * y**beta_0."""
    if not fs:
        return BiPoly([(exps, c) for c, exps in terms])
    groups: dict[int, list[BasisTerm]] = {}
    for c, exps in terms:
        groups.setdefault(exps[-1], []).append((c, exps[:-1]))
    coeffs = [basis_reconstruct(groups.get(l, []), fs[:-1])
              for l in range(max(groups, default=-1) + 1)]
    return _horner(coeffs, fs[-1])
