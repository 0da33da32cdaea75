"""Independent implicitization through the classical resultant.

Eliminating t from x - t**e and y - yt(t) with a Sylvester determinant
gives, after monic normalization, the unique defining polynomial of the
truncated curve supported in its polygon. The chain construction never
feeds this computation, so agreement of the two routes certifies the
uniqueness claim on every instance small enough to afford the determinant
(Sylvester dimension e + deg(yt), guarded by a configurable bound on e).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BiPoly, Coeff, coeff_div, sylvester_det
from .errors import OracleBoundError
from .parametrize import Parametrization

DEFAULT_ORACLE_BOUND = 12


@dataclass(frozen=True)
class OracleResult:
    monic: BiPoly        # resultant normalized monic in y**e
    unit: Coeff          # the scalar stripped off by the normalization
    raw: BiPoly          # the determinant as computed


def sylvester_matrix(p_consts: dict[int, BiPoly], q_consts: dict[int, BiPoly]
                     ) -> list[list[BiPoly]]:
    """Sylvester matrix in t of two polynomials whose coefficients are
    given as bivariate polynomials (maps t-power -> BiPoly)."""
    dp = max(p_consts)
    dq = max(q_consts)
    size = dp + dq
    zero = BiPoly.zero()
    rows = []
    for r in range(dq):
        row = [zero] * size
        for j in range(dp + 1):
            row[r + j] = p_consts.get(dp - j, zero)
        rows.append(row)
    for r in range(dp):
        row = [zero] * size
        for j in range(dq + 1):
            row[r + j] = q_consts.get(dq - j, zero)
        rows.append(row)
    return rows


def resultant_implicitize(p: Parametrization,
                          bound: int = DEFAULT_ORACLE_BOUND) -> OracleResult:
    """Resultant of x - t**e and y - yt(t) with respect to t, computed by
    fraction-free elimination on the Sylvester matrix.

    Raises OracleBoundError when e exceeds the bound (callers then fall
    back to pullback-only certification). The monic-normalized result
    vanishes under the pullback; equality with the chain's equation is the
    caller's check.
    """
    e = p.e
    if e > bound:
        raise OracleBoundError(f"level degree {e} exceeds oracle bound {bound}")
    # x - t**e: coefficient -1 at t**e, x at t**0
    pc = {e: BiPoly.const(-1), 0: BiPoly.x()}
    # y - yt(t): coefficient -c at each yt term, y at t**0
    qc = {m: BiPoly.const(-c) for m, c in p.yt.terms()}
    qc[0] = qc.get(0, BiPoly.zero()) + BiPoly.y()
    det = sylvester_det(sylvester_matrix(pc, qc))
    unit = det.coeff((0, e))
    assert unit, "resultant is not monic-normalizable; internal error"
    monic = det if unit == 1 else det * coeff_div(1, unit)
    assert p.pullback(monic).is_zero, "resultant does not vanish on the branch"
    return OracleResult(monic=monic, unit=unit, raw=det)
