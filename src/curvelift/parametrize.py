"""Truncated parametrizations and the valuations they induce.

The level-i truncation of a branch x = t**k, y = zeta(t) keeps the first i
characteristic levels and rescales t so the parametrization stays
primitive:

    x = t**e_i,   y = (level <= i part of zeta)(t**(e_i/k)).

Pulling a series f(x, y) back along the truncation and taking the t-order
defines the valuation; it is additive on products, superadditive on sums,
and its finite values fill the level-i value semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

from .algebra import BiPoly, UniPoly
from .chardata import Branch
from .errors import InvariantError
from .semigroup import generators

if TYPE_CHECKING:  # pragma: no cover
    from .implicitize import LiftChain


class Parametrization:
    """One truncation level: x = t**e, y = yt(t), the truncated branch.

    Immutable after construction, and it holds no cache.
    """

    def __init__(self, level: int, e: int, yt: UniPoly):
        self.level = level
        self.e = e
        self.yt = yt

    def pullback(self, f: BiPoly) -> UniPoly:
        """The substitution f(t**e, yt(t)), expanded exactly: the rows
        sum_a c * t**(e*a) of each y-power b, summed by Horner's rule in yt."""
        rows: dict[int, list] = {}
        for (a, b), v in f.terms():
            rows.setdefault(b, []).append((a * self.e, v))
        total = UniPoly.zero()
        for b in range(max(rows, default=-1), -1, -1):
            total = total * self.yt
            if b in rows:
                total = total + UniPoly(rows[b])
        return total

    def valuation(self, f: BiPoly):
        """Order of the pullback; INFINITY iff the pullback vanishes."""
        return self.pullback(f).order()

    def __repr__(self):
        return f"Parametrization(level={self.level}, x=t^{self.e}, y={self.yt!r})"


def truncation(branch: Branch, i: int) -> Parametrization:
    """Build the level-i truncation of a validated branch."""
    cd = branch.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"truncation level {i} out of range 1..{cd.s}")
    k, e_i = cd.k, cd.es[i]
    if i < cd.s:
        cutoff = cd.lambdas[i] * k  # keep exponents strictly below k*lambda_{i+1}
        kept = [(m, c) for m, c in branch.terms if m < cutoff]
    else:
        kept = list(branch.terms)
    yt = {}
    for m, c in kept:
        q, r = divmod(m * e_i, k)
        if r:
            raise InvariantError(
                f"non-integral exponent {m}*{e_i}/{k} in truncation (corrupt branch)")
        yt[q] = c
    g = e_i
    for q in yt:
        g = gcd(g, q)
    if g != 1:
        raise InvariantError(f"level {i} truncation lost primitivity (corrupt branch)")
    if min(yt) != int(cd.lambdas[0] * e_i):
        raise InvariantError(f"level {i} truncation order drifted (corrupt branch)")
    return Parametrization(level=i, e=e_i, yt=UniPoly(yt))


@dataclass(frozen=True)
class TableRow:
    """One certified cell of the valuation table."""

    i: int
    j: int
    value: object            # valuation of f_{i-1} under level j
    expected: int            # gamma_i at level j
    dvalue: object           # valuation of d/dy f_{i-1} under level j
    dexpected: int           # gamma_i at level j minus e_j * lambda_i

    @property
    def ok(self) -> bool:
        return self.value == self.expected and self.dvalue == self.dexpected


@dataclass(frozen=True)
class ValuationTable:
    rows: tuple[TableRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def row(self, i: int, j: int) -> TableRow:
        for r in self.rows:
            if r.i == i and r.j == j:
                return r
        raise KeyError((i, j))


def valuation_table(chain: "LiftChain") -> ValuationTable:
    """Check every prediction  val_j(f_{i-1}) = gamma_i^{(j)}  and
    val_j(d/dy f_{i-1}) = gamma_i^{(j)} - e_j*lambda_i  for 1 <= i <= j <= s.

    Cells are independent; they are evaluated in a fixed order so the
    result is deterministic.
    """
    branch = chain.branch
    cd = branch.cd
    s = cd.s
    rows = []
    for j in range(1, s + 1):
        p = truncation(branch, j)
        sd = generators(cd, j)
        e_j = cd.es[j]
        for i in range(1, j + 1):
            f_prev = BiPoly.y() if i == 1 else chain.fs[i - 2]
            gamma_ij = sd.gamma[i - 1]
            rows.append(TableRow(
                i=i, j=j,
                value=p.valuation(f_prev),
                expected=gamma_ij,
                dvalue=p.valuation(f_prev.partial_y()),
                # integral: generators(cd, j) checked e_j * lambda_i
                dexpected=gamma_ij - int(e_j * cd.lambdas[i - 1]),
            ))
    return ValuationTable(rows=tuple(rows))
