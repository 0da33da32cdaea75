"""Independent implicitization through the norm (the monic resultant).

The truncation x = t**e, y = yt(t) makes t a root of t**e - x over Q(x),
so its curve is cut out by the norm of y - yt(t) from Q(x)[t]/(t**e - x)
down to Q(x)[y]. Over an algebraic closure, with s**e = x and w a
primitive e-th root of unity, that norm is the characteristic polynomial

    N(y) = prod_{j < e} (y - yt(w**j s)),

monic of degree e in y; resultant_implicitize returns it as a BiPoly.
Its power sums are traces. Writing yt**m = sum_n a_n t**n, the sum over
j of (w**j)**n is e when e divides n and 0 otherwise, so

    p_m(x) = sum_j yt(w**j s)**m = e * sum_q [t**(e*q)] yt(t)**m * x**q,

and Newton's identities turn p_1..p_e into the coefficients of
N(y) = sum_m c_m(x) y**(e-m):  c_0 = 1,  c_m = -(1/m) sum_{i=1..m}
c_{m-i} p_i (Cohen, *A Course in Computational Algebraic Number Theory*,
4.3; von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).

N(y) equals the Sylvester resultant of x - t**e and y - yt(t) with respect
to t once that is normalized monic in y**e: the resultant is, up to a
unit, the product of y - yt(r) over the e roots r of t**e - x. The
computation runs on integer maps: it reads yt = Y/d off the numerators
and the denominator that ``algebra`` stores. The scaled roots Y(w**j s)
are integral over Z[x], so the coefficients C_m of their characteristic
polynomial lie in Z[x], Newton's divisions by m are exact there, and
c_m = C_m / d**m = C_m * d**(e-m) / d**e: one denominator for the norm.

The power sums are read off one integer evaluation. Write Y = t**q0 * R(t)
with q0 the lowest exponent of Y. Every coefficient of Y**m, m <= e, is at
most ||Y||_1**m <= ||Y||_1**e in absolute value (each sums products of m
coefficients of Y), so one digit width W, a whole number of bytes with
2**(W-1) > ||Y||_1**e, holds them all. z = R(2**W)**m follows from
R(2**W)**(m-1) by one shifted add per term of Y; each of its m*deg R + 1
digits lies strictly between -2**(W-1) and 2**(W-1), so adding 2**(W-1)
to every digit puts each in [0, 2**W) and no digit borrows from or
carries into its neighbour. One ``to_bytes`` then lays the digits out
exactly, and only those at exponents m*q0 + j divisible by e are read
back: they are P_m / e.

Nothing here calls the UniPoly, BiPoly, PowerChain or pullback
arithmetic the lift runs on: the power sums come from plain ``int``
evaluations and this module's own decode, the products of Newton's
identities are sparse schoolbook convolutions of plain ``int`` maps, and
only BiPoly's canonical-form constructor wraps the result. Agreement with the chain's f_i therefore
certifies it independently.
"""

from __future__ import annotations

from .algebra import BiPoly
from .errors import InvariantError
from .parametrize import Parametrization


def _add_product(acc: dict[int, int], a: dict[int, int], b: dict[int, int]
                 ) -> dict[int, int]:
    """acc += a*b for maps {exponent: int}, by schoolbook convolution."""
    for i, u in a.items():
        for j, v in b.items():
            acc[i + j] = acc.get(i + j, 0) + u * v
    return acc


def _power_sums(e: int, ys: dict[int, int]) -> list[dict[int, int]]:
    """[{}, P_1, .., P_e] for Y = ys: P_m = e * sum_q [t**(e*q)] Y**m * x**q,
    the power sums of the scaled roots Y(w**j s) as {x-power: int}, each
    read off one packed power of Y (see the module docstring)."""
    q0 = min(ys)
    deg = max(ys) - q0
    # 2**(W-1) > ||Y||_1**e, with W = 8*nb bits
    nb = (sum(map(abs, ys.values())) ** e).bit_length() // 8 + 1
    half = 1 << 8 * nb - 1
    digit = b"\x00" * (nb - 1) + b"\x80"
    shifts = [(8 * nb * (q - q0), c) for q, c in ys.items()]
    psums = [{}]
    z = 1
    for m in range(1, e + 1):
        z = sum(c * (z << s) for s, c in shifts)
        n = m * deg + 1
        buf = (z + int.from_bytes(digit * n, "little")).to_bytes(nb * n, "little")
        lo = m * q0
        p_m = {}
        for j in range(-lo % e, n, e):
            v = int.from_bytes(buf[nb * j:nb * j + nb], "little") - half
            if v:
                p_m[(lo + j) // e] = e * v
        psums.append(p_m)
    return psums


def resultant_implicitize(p: Parametrization) -> BiPoly:
    """The norm of y - yt(t) from Q(x)[t]/(t**e - x), monic in y**e, from
    power sums of traces and Newton's identities (see the module docstring).

    Equality with the chain's equation is the caller's check.
    """
    e, d = p.e, p.yt._d
    psums = _power_sums(e, p.yt._c)
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
    return BiPoly._reduced({(a, e - m): v * d ** (e - m)
                            for m, c_m in enumerate(cs) for a, v in c_m.items()},
                           d ** e)
