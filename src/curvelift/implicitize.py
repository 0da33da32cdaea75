"""The elimination driver: lift defining equations level by level.

Level i starts from g = f_{i-1}**k_i, whose pullback u along the level-i
truncation has finite order n. Every surviving order is a value-semigroup
member, so the slice enumeration returns basis tuples
(alpha, beta_0, ..., beta_{i-1}) whose products

    P = x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}

hit order n exactly; adding a * P with the unique coefficient a that kills
the t**n term strictly raises the order. Only u, n and the slice decide
anything, so the loop runs on the pullback alone and logs each (n, P, a);
it ends when u vanishes, which the support bound forces after finitely
many steps. The log is a basis decomposition of delta_i, summed once at
the end: f_i = f_{i-1}**k_i + delta_i. f_i is unique, so the choice of
slice element (lexicographically smallest by default) cannot change it.

On the first iteration the tuple (0, ..., 0, k_i) is excluded: it is g
itself. Any other slice tuple has order above e_i, so delta_i never
touches the apex (0, e_i) and f_i is monic by construction.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields

from .algebra import INFINITY, BiPoly, Coeff, PowerChain, UniPoly, coeff_div
from .chardata import Branch
from .errors import (EmptySliceError, InvariantError, IterationBudgetError,
                     OracleBoundError)
from .oracle import DEFAULT_ORACLE_BOUND, resultant_implicitize
from .parametrize import ValuationTable, truncation, valuation_table
from .polygon import SliceQuery, lattice_slice, polygon_contains, polygon_desc
from .semigroup import generators, semigroup_member
from .weierstrass import basis_reconstruct, is_weierstrass


@dataclass(frozen=True)
class IterationRecord:
    """One elimination step: the order killed, the chosen basis tuple and
    the solved coefficient."""

    n: int
    pivot: tuple[int, ...]
    coeff: Coeff


@dataclass(frozen=True)
class LevelCertificate:
    """Per-level checks behind the chain's correctness claims."""

    level: int
    pullback_zero: bool            # the truncation annihilates f_i
    support_in_polygon: bool       # Supp(f_i) inside N_i
    apex_absent_in_delta: bool     # (0, e_i) not in Supp(delta_i)
    compact_face_present: bool     # (0, e_i) and (e_i*lam_1, 0) in Supp(f_i)
    monic_weierstrass: bool        # f_i is Weierstrass of degree e_i
    n_log_increasing: bool         # logged orders strictly increase
    n_log_in_semigroup: bool       # every logged order is a semigroup member
    valuation_rows_ok: bool        # the level-i rows of the valuation table
    oracle: str                    # "match" | "mismatch" | "skipped"

    def checks(self) -> dict[str, bool | str]:
        """Every outcome but the level, in field order (the JSON key order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "level"}

    @property
    def ok(self) -> bool:
        checks = self.checks()
        return checks.pop("oracle") in ("match", "skipped") and all(checks.values())


@dataclass(frozen=True)
class LiftChain:
    """The chain f_1, ..., f_s with per-level corrections and evidence."""

    branch: Branch
    fs: tuple[BiPoly, ...]
    deltas: tuple[BiPoly, ...]
    logs: tuple[tuple[IterationRecord, ...], ...]
    certificates: tuple[LevelCertificate, ...] = ()
    table: ValuationTable | None = None

    @property
    def cd(self):
        return self.branch.cd

    @property
    def ok(self) -> bool:
        return bool(self.certificates) and all(c.ok for c in self.certificates) \
            and self.table is not None and self.table.ok


def lift(branch: Branch, fs: tuple[BiPoly, ...], i: int, pivot_rule: str = "min"
         ) -> tuple[BiPoly, BiPoly, tuple[IterationRecord, ...]]:
    """Compute (f_i, delta_i, log) from the already-lifted f_1 .. f_{i-1}.

    ``pivot_rule`` picks the slice element to solve for: "min" the
    lexicographically smallest (default), "max" the largest. The monic
    f_i does not depend on the rule.
    """
    cd = branch.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    if len(fs) < i - 1:
        raise ValueError(f"lift to level {i} needs f_1..f_{i - 1}")
    if pivot_rule not in ("min", "max"):
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    k_i = cd.ks[i - 1]
    p = truncation(branch, i)

    # pullbacks of the basis: f_0 = y, then the previous chain polynomials
    pullbacks = [p.pullback(f) for f in (BiPoly.y(), *fs[:i - 1])]
    uni_pows = [PowerChain(u, UniPoly.one()) for u in pullbacks]

    # slice data: sg = pullback orders, ls = pullback degrees of
    # x, f_0, ..., f_{i-1}; the bound encodes the support polygon
    sd = generators(cd, i)
    sg = (sd.free, *sd.gamma)
    ls = (p.e,) + tuple(u.degree() for u in pullbacks)
    bound = p.e * pullbacks[0].degree()

    u = uni_pows[-1].get(k_i)

    budget = bound - p.e * int(p.e * cd.lambdas[0]) + 1
    log: list[IterationRecord] = []
    while True:
        n = u.order()
        if n is INFINITY:
            break
        if len(log) >= budget:
            raise IterationBudgetError(
                f"level {i}: more than {budget} iterations; internal error")
        query = SliceQuery(n=n, sg=sg, ls=ls, bound=bound)
        exclude = None if log else (0,) * i + (k_i,)
        slab = lattice_slice(query, exclude=exclude)
        if not slab:
            raise EmptySliceError(
                f"level {i}: no basis tuple of order {n}; corrupt input or bug")
        pivot = slab[0] if pivot_rule == "min" else slab[-1]

        alpha, betas = pivot[0], pivot[1:]
        u_p = UniPoly.t(p.e * alpha)
        for l, b in enumerate(betas):
            if b:
                u_p = u_p * uni_pows[l].get(b)
        p_n = u_p.coeff(n)
        if not p_n:
            raise InvariantError(
                f"level {i}: basis product {pivot} misses order {n}")
        a = coeff_div(-u.coeff(n), p_n)
        u = u + u_p * a
        log.append(IterationRecord(n=n, pivot=pivot, coeff=a))

    delta = basis_reconstruct([(r.coeff, r.pivot) for r in log], fs[:i - 1])
    f_i = (fs[i - 2] if i > 1 else BiPoly.y()) ** k_i + delta
    if f_i.coeff((0, p.e)) != 1:
        raise InvariantError(f"level {i}: f_{i} is not monic at (0, {p.e})")
    return f_i, delta, tuple(log)


def lift_levels(branch: Branch, pivot_rule: str = "min"
                ) -> Iterator[tuple[BiPoly, BiPoly, tuple[IterationRecord, ...]]]:
    """Yield lift(branch, (f_1, ..., f_{i-1}), i) for i = 1, ..., s."""
    fs: list[BiPoly] = []
    for i in range(1, branch.cd.s + 1):
        level = lift(branch, tuple(fs), i, pivot_rule=pivot_rule)
        fs.append(level[0])
        yield level


def implicitize_all(branch: Branch, verify: bool = True,
                    oracle_bound: int = DEFAULT_ORACLE_BOUND,
                    pivot_rule: str = "min") -> LiftChain:
    """Run the full chain f_1, ..., f_s; f_s is the reported approximation
    of the branch equation, with the same multiplicity and characteristic
    exponents. With ``verify`` the certificates are evaluated eagerly."""
    fs, deltas, logs = zip(*lift_levels(branch, pivot_rule))
    chain = LiftChain(branch=branch, fs=fs, deltas=deltas, logs=logs)
    if verify:
        chain = certify(chain, oracle_bound=oracle_bound)
    return chain


def certify(chain: LiftChain, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> LiftChain:
    """Evaluate all per-level certificates plus the full valuation table.

    Recomputable from (branch, fs) alone except for the iteration-log
    checks, which are skipped when a level's log is empty.
    """
    branch = chain.branch
    cd = branch.cd
    table = valuation_table(chain, branch)
    certs = []
    for i in range(1, cd.s + 1):
        f_i = chain.fs[i - 1]
        delta_i = chain.deltas[i - 1]
        e_i = cd.es[i]
        p = truncation(branch, i)
        pd = polygon_desc(branch, i)

        ok_w, deg = is_weierstrass(f_i)
        monic = ok_w and deg == e_i
        support_ok = all(polygon_contains(key, pd) for key in f_i.support())
        apex_ok = (0, e_i) not in delta_i.support()
        face_ok = {(0, e_i), (int(e_i * cd.lambdas[0]), 0)} <= f_i.support()
        log = chain.logs[i - 1] if i - 1 < len(chain.logs) else ()
        ns = [rec.n for rec in log]
        increasing = all(a < b for a, b in zip(ns, ns[1:]))
        sd = generators(cd, i)
        in_semigroup = all(semigroup_member(n, sd) for n in ns)

        rows_ok = all(r.ok for r in table.rows if r.i == i)

        if e_i <= oracle_bound:
            try:
                res = resultant_implicitize(p, bound=oracle_bound)
                oracle = "match" if res.monic == f_i else "mismatch"
            except OracleBoundError:
                oracle = "skipped"
        else:
            oracle = "skipped"
        # on a match the oracle's self-check has pulled back f_i already
        pull_zero = oracle == "match" or p.pullback(f_i).is_zero

        certs.append(LevelCertificate(
            level=i, pullback_zero=pull_zero, support_in_polygon=support_ok,
            apex_absent_in_delta=apex_ok, compact_face_present=face_ok,
            monic_weierstrass=monic, n_log_increasing=increasing,
            n_log_in_semigroup=in_semigroup, valuation_rows_ok=rows_ok,
            oracle=oracle))
    return LiftChain(branch=branch, fs=chain.fs, deltas=chain.deltas,
                     logs=chain.logs, certificates=tuple(certs), table=table)


def chain_from_polynomials(branch: Branch, fs) -> LiftChain:
    """Rebuild a chain object from externally supplied level polynomials
    (corrections recomputed, no iteration logs); certify() then re-derives
    every log-independent certificate."""
    cd = branch.cd
    fs = tuple(fs)
    if len(fs) != cd.s:
        raise ValueError(f"expected {cd.s} polynomials, got {len(fs)}")
    deltas = []
    prev = BiPoly.y()
    for i, f in enumerate(fs, start=1):
        deltas.append(f - prev ** cd.ks[i - 1])
        prev = f
    return LiftChain(branch=branch, fs=fs, deltas=tuple(deltas), logs=())
