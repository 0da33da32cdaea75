"""The Weierstrass test and the basis reconstruction.

A Weierstrass polynomial in y is monic in y with every lower y-coefficient
vanishing at x = 0; certify checks that each f_i is one, of degree e_i.

lift logs delta_i as exact rational multiples of the basis products
x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}, and
basis_reconstruct sums them level by level by Horner's rule in each f_l,
forming no power of f_l. The Horner loop is ``algebra.horner``, the one
that ``Parametrization.pullback`` runs in yt too.
"""

from __future__ import annotations

from .algebra import BiPoly, Coeff, horner


def is_weierstrass(p: BiPoly) -> tuple[bool, int]:
    """Whether p is a Weierstrass polynomial in y; returns (flag, deg_y)."""
    if p.is_zero:
        return False, -1
    m = p.deg_y()
    if m < 1 or p.coeff((0, m)) != 1:
        return False, m
    for a, b in p.support():
        if b == m and a != 0:
            return False, m      # not monic: x-dependence at the top power
        if b < m and a == 0:
            return False, m      # lower coefficient does not vanish at x = 0
    return True, m


BasisTerm = tuple[Coeff, tuple[int, ...]]  # (coefficient, (alpha, beta_0, ..., beta_{i-1}))


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
    return horner(coeffs, fs[-1])
