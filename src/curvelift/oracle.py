"""Independent implicitization through the norm (the monic resultant).

The truncation x = t**e, y = yt(t) makes t a root of t**e - x over Q(x),
so its curve is cut out by the norm of y - yt(t) from Q(x)[t]/(t**e - x)
down to Q(x)[y]. Over an algebraic closure, with s**e = x and w a
primitive e-th root of unity, that norm is the characteristic polynomial

    N(y) = prod_{j < e} (y - yt(w**j s)),

monic of degree e in y. Its power sums are traces. Writing yt**m =
sum_n a_n t**n, the sum over j of (w**j)**n is e when e divides n and 0
otherwise, so

    p_m(x) = sum_j yt(w**j s)**m = e * sum_q [t**(e*q)] yt(t)**m * x**q,

and Newton's identities turn p_1..p_e into the coefficients of
N(y) = sum_m c_m(x) y**(e-m):  c_0 = 1,  c_m = -(1/m) sum_{i=1..m}
c_{m-i} p_i (Cohen, *A Course in Computational Algebraic Number Theory*,
4.3; von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).

N(y) equals the Sylvester resultant of x - t**e and y - yt(t) with respect
to t once that is normalized monic in y**e: the resultant is, up to a
unit, the product of y - yt(r) over the e roots r of t**e - x. The
computation runs on integer maps: with yt = Y/d and Y integral, the
scaled roots Y(w**j s) are integral over Z[x], so the coefficients C_m of
their characteristic polynomial lie in Z[x], Newton's divisions by m are
exact there, and c_m = C_m / d**m.

Nothing here calls the UniPoly, BiPoly or PowerChain arithmetic the lift
runs on: the powers of Y and the products of Newton's identities are
sparse schoolbook convolutions of plain ``int`` maps. Agreement with the
chain's f_i therefore certifies it independently. The one exception is
the final self-check that the pullback of the result vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import BiPoly
from .errors import InvariantError, OracleBoundError
from .parametrize import Parametrization

DEFAULT_ORACLE_BOUND = 12


@dataclass(frozen=True)
class OracleResult:
    monic: BiPoly        # the norm of y - yt(t), monic in y**e


def _add_product(acc: dict[int, int], a: dict[int, int], b: dict[int, int]
                 ) -> dict[int, int]:
    """acc += a*b for maps {exponent: int}, by schoolbook convolution."""
    for i, u in a.items():
        for j, v in b.items():
            acc[i + j] = acc.get(i + j, 0) + u * v
    return acc


def resultant_implicitize(p: Parametrization,
                          bound: int = DEFAULT_ORACLE_BOUND) -> OracleResult:
    """Norm of y - yt(t) from Q(x)[t]/(t**e - x), from power sums of
    traces and Newton's identities (see the module docstring).

    Raises OracleBoundError when e exceeds the bound (callers then fall
    back to pullback-only certification). The result vanishes under the
    pullback; equality with the chain's equation is the caller's check.
    """
    e = p.e
    if e > bound:
        raise OracleBoundError(f"level degree {e} exceeds oracle bound {bound}")
    terms = [(n, Fraction(c)) for n, c in p.yt.terms()]
    d = lcm(*(c.denominator for _, c in terms))
    y_int = {n: c.numerator * (d // c.denominator) for n, c in terms}
    # P_m: power sums of the scaled roots Y(w**j s), as {x-power: int}
    psums = [{}]
    y_pow = {0: 1}
    for _ in range(e):
        y_pow = _add_product({}, y_pow, y_int)
        psums.append({n // e: e * v for n, v in y_pow.items() if v and n % e == 0})
    # Newton's identities over Z[x]: m*C_m = -sum_{i=1..m} C_{m-i} P_i
    cs = [{0: 1}]
    for m in range(1, e + 1):
        acc: dict[int, int] = {}
        for i in range(1, m + 1):
            _add_product(acc, cs[m - i], psums[i])
        c_m = {}
        for a, v in acc.items():
            q, r = divmod(-v, m)
            if r:
                raise InvariantError(f"Newton's identity gave {-v}/{m}, not in Z[x]")
            if q:
                c_m[a] = q
        cs.append(c_m)
    monic = BiPoly({(a, e - m): Fraction(v, d ** m)
                    for m, c_m in enumerate(cs) for a, v in c_m.items()})
    if not p.pullback(monic).is_zero:
        raise InvariantError("resultant does not vanish on the branch")
    return OracleResult(monic=monic)
