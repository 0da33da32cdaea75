"""Support polygons of the truncation equations and the slice enumeration.

The defining polynomial of the level-i truncation has support inside

    N_i = { (a, b) in N_0^2 :  k_1*a + (k_1*lam_1)*b >= e_i*(k_1*lam_1)
                           and e_i*a + (e_i*mu_i)*b <= e_i*(e_i*mu_i) },

the lattice points of the triangle with vertices (0, e_i), (e_i*lam_1, 0)
and (e_i*mu_i, 0). Equivalently, (a, b) is in N_i exactly when the
pullback support of x**a * y**b lies in [e_i*(e_i*lam_1), e_i*(e_i*mu_i)].
Here mu_i is the scaled degree of the level-i tail (mu_i = lam_i for an
empty tail). Both inequalities have integer data, so membership tests are
integer-only.

The paper prices each elimination step as a small knapsack-style integer
program: the non-negative integer solutions of

    VE . SG == n   with   VE . LS <= bound.

lattice_slice is the reference enumeration of that slice. The lift does not
call it: it takes the slice's lexicographically largest tuple directly, as
the semigroup normal form of n (see ``implicitize``), and the tests compare
the two. On the hyperplane VE . SG == n the bound is the same as
VE . (LS - SG) <= bound - n, whose weights LS - SG are non-negative
(SliceQuery checks SG <= LS). lattice_slice enumerates the solutions by
recursive descent, pruning on divisibility and on the budget bound - n that
is left after the hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .chardata import Branch
from .errors import InvariantError


def mu(branch: Branch, i: int) -> Fraction:
    """Scaled degree of the level-i tail; lambda_i when the tail is empty."""
    cd = branch.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    phi = branch.phis[i - 1]
    if phi.is_zero:
        return cd.lambdas[i - 1]
    e_i, k = cd.es[i], cd.k
    q, r = divmod(phi.degree() * e_i, k)
    if r:
        raise InvariantError(f"level {i} tail degree outside the level lattice")
    return Fraction(q, e_i)


@dataclass(frozen=True)
class PolygonDesc:
    """The two integer inequalities cutting out N_i, plus vertex data."""

    mu: Fraction
    lower: tuple[int, int, int]   # (A, B, C): A*a + B*b >= C
    upper: tuple[int, int, int]   # (A, B, C): A*a + B*b <= C
    vertices: tuple[tuple[int, int], ...]


def polygon_desc(branch: Branch, i: int) -> PolygonDesc:
    cd = branch.cd
    e_i = cd.es[i]
    lam1 = cd.lambdas[0]
    mu_i = mu(branch, i)
    k1 = cd.ks[0]
    k1lam1 = int(k1 * lam1)          # integral: k_1 is the denominator of lam_1
    e_mu = int(e_i * mu_i)           # integral: mu_i lies in (1/e_i) Z
    e_lam1 = int(e_i * lam1)
    return PolygonDesc(
        mu=mu_i,
        lower=(k1, k1lam1, e_i * k1lam1),
        upper=(e_i, e_mu, e_i * e_mu),
        vertices=((0, e_i), (e_lam1, 0), (e_mu, 0)),
    )


def polygon_contains(point: tuple[int, int], pd: PolygonDesc) -> bool:
    a, b = point
    if a < 0 or b < 0:
        return False
    la, lb, lc = pd.lower
    ua, ub, uc = pd.upper
    return la * a + lb * b >= lc and ua * a + ub * b <= uc


@dataclass(frozen=True)
class SliceQuery:
    """One hyperplane slice: solve VE.sg == n, VE.ls <= bound, VE >= 0."""

    n: int
    sg: tuple[int, ...]
    ls: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if not (len(self.sg) == len(self.ls) and all(w > 0 for w in self.sg)
                and all(l >= w for w, l in zip(self.sg, self.ls))):
            raise InvariantError(
                f"slice weights need len(sg) == len(ls) and 0 < sg <= ls, "
                f"got sg={self.sg}, ls={self.ls}")


def lattice_slice(q: SliceQuery) -> list[tuple[int, ...]]:
    """All non-negative integer tuples VE with VE.sg == n and
    VE.ls <= bound, in lexicographic order.

    Recursive descent over coordinates sorted by descending sg-weight,
    pruning on a suffix-gcd divisibility test and on the partial sum of
    VE.(ls - sg) against the budget bound - n.
    """
    budget = q.bound - q.n
    if q.n < 0 or budget < 0:
        return []
    m = len(q.sg)
    if m == 0:
        return [()] if q.n == 0 else []
    order = sorted(range(m), key=lambda j: -q.sg[j])
    # gcd of the weights not yet fixed below each recursion depth
    suffix_gcd = [0] * (m + 1)
    for pos in range(m - 1, -1, -1):
        suffix_gcd[pos] = gcd(suffix_gcd[pos + 1], q.sg[order[pos]])

    out = []
    ve = [0] * m

    def descend(pos: int, rem: int, used: int):
        j = order[pos]
        w = q.sg[j]
        d = q.ls[j] - w
        if pos == m - 1:
            c, r = divmod(rem, w)
            if r == 0 and used + c * d <= budget:
                ve[j] = c
                out.append(tuple(ve))
                ve[j] = 0
            return
        g = suffix_gcd[pos + 1]
        limit = rem // w if d == 0 else min(rem // w, (budget - used) // d)
        for c in range(limit + 1):
            r2 = rem - c * w
            if r2 % g == 0:  # later weights are all multiples of g
                ve[j] = c
                descend(pos + 1, r2, used + c * d)
        ve[j] = 0

    descend(0, q.n, 0)
    out.sort()
    return out
