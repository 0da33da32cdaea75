"""Truncated parametrizations and the valuations they induce.

The level-i truncation of a branch x = t**k, y = zeta(t) keeps the first i
characteristic levels and rescales t so the parametrization stays
primitive:

    x = t**e_i,   y = (level <= i part of zeta)(t**(e_i/k)).

Pulling a series f(x, y) back along the truncation and taking the t-order
defines the valuation; it is additive on products, superadditive on sums,
and its finite values fill the level-i value semigroup.

``valuation`` reads the order off one integer evaluation at t = 2**W, not
off ``pullback``, the lift's expansion: the valuation table and
``pullback_zero`` built on it share no arithmetic with the lift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import INFINITY, BiPoly, UniPoly, horner
from .chardata import Branch


@dataclass(frozen=True)
class Parametrization:
    """One truncation level: x = t**e, y = yt(t), the truncated branch.

    Immutable after construction, and it holds no cache.
    """

    level: int
    e: int
    yt: UniPoly

    def pullback(self, f: BiPoly) -> UniPoly:
        """f(t**e, yt(t)) expanded exactly: for f = F/d_f, the rows sum_a
        F_ab*t**(e*a) summed by Horner's rule in yt, then divided by d_f."""
        rows: dict[int, dict] = {}
        for (a, b), v in f._c.items():
            rows.setdefault(b, {})[a * self.e] = v
        total = horner([UniPoly._raw(rows.get(b, {}))
                        for b in range(max(rows, default=-1) + 1)], self.yt)
        return UniPoly._reduced(total._c, total._d * f._d)

    def valuation(self, f: BiPoly):
        """Order of the pullback; INFINITY iff the pullback vanishes.

        With f = F/d_f and yt = Y/d_Y over the integers and B = deg_y f, the
        pullback has the order of N(t) = sum F_ab*t**(e*a)*Y**b*d_Y**(B-b).
        Y**b has coefficients of size at most ||Y||_1**b, so N's are at
        most H = sum |F_ab|*||Y||_1**b*d_Y**(B-b) < 2**(W-1), W = bits(H)+1.
        Horner's rule over ints gives M = N(2**W) / 2**(W*off) exactly,
        off <= ord N (a row below off shifts M up first). Each step times Y
        takes Y's lowest term unshifted and each other term as one shift of
        the accumulator, added or subtracted when its numerator is 1 or -1
        and multiplied by it otherwise. If N = c*t**q + O(t**(q+1)), M is
        2**(W*(q-off)) * (c + 2**W*R) with 0 < |c| < 2**W, so q is
        off + v2(M)//W for v2 the lowest set bit; M = 0 iff N = 0.
        """
        rows: dict[int, list] = {}
        for (a, b), v in f._c.items():
            rows.setdefault(b, []).append((a * self.e, v))
        top = max(rows, default=-1)
        ys, d = self.yt._c, self.yt._d
        norm = sum(map(abs, ys.values()))
        h = sum(sum(abs(v) for _, v in row) * norm**b * d**(top - b)
                for b, row in rows.items())
        w = h.bit_length() + 1
        q0 = min(ys, default=0)
        c0 = ys.get(q0, 0)
        # the shifts of Y's other terms, the units apart from the rest
        plus, minus, other = [], [], []
        for q, c in ys.items():
            if q == q0:
                continue
            s = w * (q - q0)
            if c == 1:
                plus.append(s)
            elif c == -1:
                minus.append(s)
            else:
                other.append((s, c))
        acc, off, pw = 0, 0, 1
        for b in range(top, -1, -1):
            # acc * Y(2**W) / 2**(W*q0)
            nxt = acc if c0 == 1 else -acc if c0 == -1 else c0 * acc
            for s in plus:
                nxt += acc << s
            for s in minus:
                nxt -= acc << s
            for s, c in other:
                nxt += c * acc << s
            acc = nxt
            off += q0
            if b in rows:
                lo = min(x for x, _ in rows[b])
                if lo < off or not acc:
                    acc, off = acc << w * max(off - lo, 0), lo
                acc += pw * sum(v << w * (x - off) for x, v in rows[b])
            pw *= d
        if not acc:
            return INFINITY
        return off + ((acc & -acc).bit_length() - 1) // w


def truncation(branch: Branch, i: int) -> Parametrization:
    """Build the level-i truncation of a validated branch. The kept
    exponents lie below k*lambda_{i+1}, where the running gcd of k and the
    exponents is k/e_i: so each is a multiple of k/e_i, the truncation is
    primitive, and its order is e_i*lambda_1."""
    cd = branch.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"truncation level {i} out of range 1..{cd.s}")
    k, e_i = cd.k, cd.es[i]
    terms = branch.terms
    if i < cd.s:
        cutoff = cd.lambdas[i] * k  # keep exponents strictly below k*lambda_{i+1}
        terms = [(m, c) for m, c in terms if m < cutoff]
    return Parametrization(level=i, e=e_i, yt=UniPoly({m * e_i // k: c for m, c in terms}))


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


def valuation_table(fs: tuple[BiPoly, ...], levels, lambdas) -> ValuationTable:
    """Check every prediction  val_j(f_{i-1}) = gamma_i^{(j)}  and
    val_j(d/dy f_{i-1}) = gamma_i^{(j)} - e_j*lambda_i  for 1 <= i <= j <= s.

    ``levels`` holds the pairs (truncation(branch, j), generators(cd, j))
    for j = 1 .. s, as ``certify`` builds them, and ``lambdas`` the
    characteristic exponents; j and e_j are read off each truncation.
    With f_0 = y, each f_{i-1} and its y-derivative are formed once. Cells
    are independent; they are evaluated in a fixed order so the result is
    deterministic.
    """
    prevs = [(f, f.partial_y()) for f in (BiPoly.y(), *fs[:-1])]
    rows = []
    for p, sd in levels:
        for i, ((f_prev, df_prev), gamma_ij) in enumerate(
                zip(prevs, sd.gamma), start=1):
            rows.append(TableRow(
                i=i, j=p.level,
                value=p.valuation(f_prev),
                expected=gamma_ij,
                dvalue=p.valuation(df_prev),
                # integral: e_j is a multiple of the denominator of lambda_i
                dexpected=gamma_ij - int(p.e * lambdas[i - 1]),
            ))
    return ValuationTable(rows=tuple(rows))
