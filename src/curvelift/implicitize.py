"""The elimination driver: lift defining equations level by level.

Level i starts from g = f_{i-1}**k_i, whose pullback u along the level-i
truncation has finite order n. Every surviving order is a value-semigroup
member, and its basis tuple is its semigroup normal form

    n = e_i*alpha + beta_0*gamma_1 + ... + beta_{i-1}*gamma_i,
    0 <= beta_j <= k_{j+1} - 1,

read as (alpha, beta_0, ..., beta_{i-1}). The product

    P = x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}

has order n exactly; adding a * P with the unique coefficient a that kills
the t**n term strictly raises the order. Only u, n and the normal form
decide anything, so the loop runs on the pullback alone and logs each
(n, P, a); it ends when u vanishes, which the support bound forces after
finitely many steps. The log is a basis decomposition of delta_i, summed
once at the end: f_i = f_{i-1}**k_i + delta_i. f_i is unique, so any other
tuple of order n would give the same f_i (only the log would differ).

The paper prices each step as an integer program over the slice
VE.sg == n, VE.ls <= bound (``polygon.lattice_slice``, kept as the
reference enumeration). The normal form is the lexicographically largest
non-negative representation of n: any other one has some
beta_j >= k_{j+1}, and k_{j+1}*gamma_{j+1} lies in the earlier
subsemigroup, so rewriting it raises an earlier coordinate. When it also
meets the bound it is the slice's largest tuple. So no slice is built;
the step checks the two conditions instead, alpha >= 0 and
VE.ls <= bound, and raises InvariantError when either fails (the bound
is observed, not proved).

The pullback is an ``algebra.Residual``: integer numerators U, dense over
exponents 0 .. bound (the slice bound), one denominator D and an order n
that only moves forward. Only the beta part of a pivot needs a product:
x**alpha pulls back to the shift t**(e*alpha). ``lift`` keeps a memo, local
to one call, from each beta tuple to its unshifted product P/d_p, formed
on the tuple's first step as one n-ary Kronecker product of the pullback
powers; later steps with that tuple reuse it. Normal forms have
0 <= beta_j < k_{j+1}, so the memo holds at most e_i entries, and it is
dropped when the level ends. A step is fraction-free: with P shifted by
e*alpha, g = gcd(P_n, U_n) signed as P_n, s = P_n/g and r = U_n/g, it
scales U[n:] and D by s if s != 1, subtracts r*P over P's exponents only,
divides U[n:] and D by their gcd and logs a = -U_n*d_p / (D*P_n) (U_n, D
from before the step).

Since beta_{i-1} <= k_i - 1, no pivot is g itself, and no tuple needs to
be excluded. Every basis product has y-degree at most
sum_j (k_{j+1} - 1)*e_j = e_i - 1, so delta_i never touches the apex
(0, e_i) and f_i is monic by construction (the end of ``lift`` checks it).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from math import prod

from .algebra import INFINITY, BiPoly, Coeff, PowerChain, Residual, _kronecker_mul
from .chardata import Branch
from .errors import InvariantError
from .oracle import resultant_implicitize
from .parametrize import ValuationTable, truncation, valuation_table
from .polygon import polygon_contains, polygon_desc
from .semigroup import generators, normal_form
from .weierstrass import basis_reconstruct, is_weierstrass

DEFAULT_ORACLE_BOUND = 12  # certify runs the norm oracle where e_i <= bound


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
    n_log_increasing: bool | str   # logged orders strictly increase
    n_log_in_semigroup: bool | str  # every logged pivot is a non-negative
                                    # witness of its order; both "skipped"
                                    # on an empty log
    valuation_rows_ok: bool        # the level-i rows of the valuation table
    oracle: str                    # "match" | "mismatch" | "skipped"

    def checks(self) -> dict[str, bool | str]:
        """Every outcome but the level, in field order (the JSON key order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "level"}

    @property
    def ok(self) -> bool:
        return all(v in (True, "match", "skipped") for v in self.checks().values())


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


def lift(branch: Branch, fs: tuple[BiPoly, ...], i: int
         ) -> tuple[BiPoly, BiPoly, tuple[IterationRecord, ...]]:
    """Compute (f_i, delta_i, log) from the already-lifted f_1 .. f_{i-1},
    taking each step's pivot from the semigroup normal form of its order.

    Each distinct beta tuple's basis product is formed once, on first use,
    and kept for this call only: at most e_i entries (see the module
    docstring). A normal form with alpha < 0, or with VE.ls above the slice
    bound, is no basis tuple of the slice and raises InvariantError.
    """
    cd = branch.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    if len(fs) < i - 1:
        raise ValueError(f"lift to level {i} needs f_1..f_{i - 1}")
    k_i = cd.ks[i - 1]
    p = truncation(branch, i)

    # pullbacks of the basis: yt for f_0 = y, then f_1 .. f_{i-1}
    pullbacks = [p.yt, *(p.pullback(f) for f in fs[:i - 1])]
    uni_pows = [PowerChain(u) for u in pullbacks]

    # ls = pullback degrees of x, f_0, ..., f_{i-1}; the bound encodes the
    # support polygon
    sd = generators(cd, i)
    ls = (p.e,) + tuple(u.degree() for u in pullbacks)
    bound = p.e * p.yt.degree()

    u = Residual(uni_pows[-1].get(k_i), bound)

    budget = bound - p.e * sd.gamma[0] + 1
    log: list[IterationRecord] = []
    # beta tuple -> its unshifted product (lo, numerators, denominator)
    products: dict[tuple[int, ...], tuple[int, list[int], int]] = {}
    while True:
        n = u.order()
        if n is INFINITY:
            break
        if len(log) >= budget:
            raise InvariantError(
                f"level {i}: more than {budget} iterations; internal error")
        pivot = normal_form(n, sd)
        if pivot[0] < 0:
            raise InvariantError(
                f"level {i}: no basis tuple of order {n}; corrupt input or bug")
        if sum(c * l for c, l in zip(pivot, ls)) > bound:
            raise InvariantError(
                f"level {i}: no basis tuple of order {n}: the normal form "
                f"{pivot} is above the bound {bound}; corrupt input or bug")

        betas = pivot[1:]
        product = products.get(betas)
        if product is None:
            factors = [uni_pows[l].get(b) for l, b in enumerate(betas) if b]
            product = products[betas] = (
                *_kronecker_mul([f._c for f in factors]),
                prod(f._d for f in factors))
        a = u.eliminate(product, p.e * pivot[0])
        if a is None:
            raise InvariantError(
                f"level {i}: basis product {pivot} misses order {n}")
        log.append(IterationRecord(n=n, pivot=pivot, coeff=a))

    delta = basis_reconstruct([(r.coeff, r.pivot) for r in log], fs[:i - 1])
    f_i = (fs[i - 2] if i > 1 else BiPoly.y()) ** k_i + delta
    if f_i.coeff((0, p.e)) != 1:
        raise InvariantError(f"level {i}: f_{i} is not monic at (0, {p.e})")
    return f_i, delta, tuple(log)


def lift_levels(branch: Branch
                ) -> Iterator[tuple[BiPoly, BiPoly, tuple[IterationRecord, ...]]]:
    """Yield lift(branch, (f_1, ..., f_{i-1}), i) for i = 1, ..., s."""
    fs: list[BiPoly] = []
    for i in range(1, branch.cd.s + 1):
        level = lift(branch, tuple(fs), i)
        fs.append(level[0])
        yield level


def implicitize_all(branch: Branch, verify: bool = True,
                    oracle_bound: int = DEFAULT_ORACLE_BOUND) -> LiftChain:
    """Run the full chain f_1, ..., f_s; f_s is the reported approximation
    of the branch equation, with the same multiplicity and characteristic
    exponents. With ``verify`` the certificates are evaluated eagerly."""
    fs, deltas, logs = zip(*lift_levels(branch))
    chain = LiftChain(branch=branch, fs=fs, deltas=deltas, logs=logs)
    if verify:
        chain = certify(chain, oracle_bound=oracle_bound)
    return chain


def certify(chain: LiftChain, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> LiftChain:
    """Evaluate all per-level certificates plus the full valuation table.

    Recomputable from (branch, fs) alone except for the iteration-log
    checks, which report "skipped" when a level's log is empty.
    """
    branch = chain.branch
    cd = branch.cd
    table = valuation_table(chain)
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
        face_ok = set(pd.vertices[:2]) <= f_i.support()
        log = chain.logs[i - 1]
        if log:
            ns = [rec.n for rec in log]
            increasing = all(a < b for a, b in zip(ns, ns[1:]))
            # each logged pivot is its own witness: non-negative, with
            # pivot . (e_i, gamma_1, ..., gamma_i) == n in plain ints
            sd = generators(cd, i)
            sg = (sd.free, *sd.gamma)
            in_semigroup = all(
                len(rec.pivot) == len(sg) and min(rec.pivot) >= 0
                and sum(c * w for c, w in zip(rec.pivot, sg)) == rec.n
                for rec in log)
        else:
            increasing = in_semigroup = "skipped"

        rows_ok = all(r.ok for r in table.rows if r.i == i)

        if e_i <= oracle_bound:
            oracle = "match" if resultant_implicitize(p) == f_i else "mismatch"
        else:
            oracle = "skipped"
        pull_zero = p.pullback(f_i).is_zero

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
    (corrections recomputed, an empty iteration log per level); certify()
    then re-derives every log-independent certificate."""
    cd = branch.cd
    fs = tuple(fs)
    if len(fs) != cd.s:
        raise ValueError(f"expected {cd.s} polynomials, got {len(fs)}")
    deltas = []
    prev = BiPoly.y()
    for i, f in enumerate(fs, start=1):
        deltas.append(f - prev ** cd.ks[i - 1])
        prev = f
    return LiftChain(branch=branch, fs=fs, deltas=tuple(deltas), logs=((),) * cd.s)
