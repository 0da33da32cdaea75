"""Support polygons of the truncation equations and the slice enumeration.

The level-i truncation x = t**e, y = yt(t) (e = e_i) has lo = ord(yt) =
e*lam_1 and hi = deg(yt); its defining polynomial has support inside

    N_i = { (a, b) in N_0^2 :  (e/g)*a + (lo/g)*b >= e*lo/g
                           and e*a + hi*b <= e*hi },    g = gcd(e, lo),

the lattice points of the triangle with vertices (0, e), (lo, 0) and
(hi, 0). Equivalently, (a, b) is in N_i exactly when the pullback support
of x**a * y**b, which spans [e*a + lo*b, e*a + hi*b], lies in [e*lo, e*hi].
Both inequalities have integer data, so membership tests are integer-only.

The paper prices each elimination step as a small knapsack-style integer
program: the non-negative integer solutions of

    VE . SG == n   with   VE . LS <= bound.

lattice_slice is the reference enumeration of that slice. The lift does not
call it: it takes the slice's lexicographically largest tuple directly, as
the semigroup normal form of n (see ``implicitize``), and the tests compare
the two. On the hyperplane VE . SG == n the bound is the same as
VE . (LS - SG) <= bound - n, whose weights LS - SG are non-negative
(SliceQuery checks SG <= LS). lattice_slice enumerates the solutions by
recursive descent, pruning on the budget bound - n that is left after the
hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantError
from .parametrize import Parametrization


@dataclass(frozen=True)
class PolygonDesc:
    """The two integer inequalities cutting out N_i, plus vertex data."""

    mu: Fraction                  # deg(yt) / e, the scaled truncation degree
    lower: tuple[int, int, int]   # (A, B, C): A*a + B*b >= C
    upper: tuple[int, int, int]   # (A, B, C): A*a + B*b <= C
    vertices: tuple[tuple[int, int], ...]


def polygon_desc(p: Parametrization) -> PolygonDesc:
    """N_i read off the level-i truncation (see the module docstring)."""
    e, lo, hi = p.e, p.yt.order(), p.yt.degree()
    g = gcd(e, lo)
    return PolygonDesc(
        mu=Fraction(hi, e),
        lower=(e // g, lo // g, e * lo // g),
        upper=(e, hi, e * hi),
        vertices=((0, e), (lo, 0), (hi, 0)),
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
    pruning on the partial sum of VE.(ls - sg) against the budget bound - n;
    the last coordinate takes what is left of n, if its weight divides it.
    """
    budget = q.bound - q.n
    if q.n < 0 or budget < 0:
        return []
    m = len(q.sg)
    if m == 0:
        return [()] if q.n == 0 else []
    order = sorted(range(m), key=lambda j: -q.sg[j])
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
        limit = rem // w if d == 0 else min(rem // w, (budget - used) // d)
        for c in range(limit + 1):
            ve[j] = c
            descend(pos + 1, rem - c * w, used + c * d)
        ve[j] = 0

    descend(0, q.n, 0)
    out.sort()
    return out
