"""The elimination driver: lift defining equations level by level.

Level i starts from g = f_{i-1}**k_i, whose pullback u along the level-i
truncation has finite order n. Every surviving order is a value-semigroup
member, and its basis tuple is its semigroup normal form

    n = e_i*alpha + beta_0*gamma_1 + ... + beta_{i-1}*gamma_i,
    0 <= beta_j <= k_{j+1} - 1,

read as (alpha, beta_0, ..., beta_{i-1}). The product

    P = x**alpha * y**beta_0 * f_1**beta_1 * ... * f_{i-1}**beta_{i-1}

has order n exactly; adding a * P with the unique coefficient a that kills
the t**n term strictly raises the order. Only u and n decide anything, and
n decides its betas through its residue class r = n mod e_i alone: n and
n + e_i have normal forms that differ in alpha only (see ``semigroup``).
So the loop keeps one entry per class: the class's first step runs the
normal form once and stores its betas, v_r = sum beta_j*gamma_j and the
highest order the bound admits in the class, v_r + bound - w_r for the
slice weight w_r = sum beta_j*deg(pullback of f_j); every later step of
the class reads alpha = (n - v_r)/e_i and checks n against that one
range. The loop runs on the pullback alone and logs each (n, P, a); it
ends when u vanishes, which the support bound forces after finitely many
steps. The log is a basis decomposition of delta_i, summed once at the
end: f_i = f_{i-1}**k_i + delta_i. f_i is unique, so any other tuple of
order n would give the same f_i (only the log would differ).

The paper prices each step as an integer program over the slice
VE.sg == n, VE.ls <= bound (``polygon.lattice_slice``, kept as the
reference enumeration). The normal form is the lexicographically largest
non-negative representation of n: any other one has some
beta_j >= k_{j+1}, and k_{j+1}*gamma_{j+1} lies in the earlier
subsemigroup, so rewriting it raises an earlier coordinate. When it also
meets the bound it is the slice's largest tuple. So no slice is built;
the step checks the two conditions instead, alpha >= 0 and
VE.ls <= bound, which are v_r <= n and n <= v_r + bound - w_r, and
raises InvariantError when either fails (the bound is observed, not
proved).

The pullback is an ``algebra.Residual`` over the level's basis pullbacks
(yt, then the pullbacks of f_1 .. f_{i-1}); each ``eliminate(betas)`` is
one step and returns its a (the ``algebra`` docstring gives the packing,
the order read, the fraction-free step and the repack). ``lift`` makes
every order check, in plain ints: once per level, that the basis
pullbacks have the orders gamma_1 .. gamma_i, so a beta tuple's product
has order sum beta_j*gamma_j, and on a class's first step, that its betas
give v_r. Every pivot then has order n, so the residual never needs the
shift t**(e_i*alpha) that x**alpha pulls back to. The residual keeps each
beta tuple's product, and the betas name the class (v_r is their order),
so a level keeps at most e_i products.

Since beta_{i-1} <= k_i - 1, no pivot is g itself, and no tuple needs to
be excluded. Every basis product has y-degree at most
sum_j (k_{j+1} - 1)*e_j = e_i - 1, so delta_i never touches the apex
(0, e_i) and f_i is monic by construction (the end of ``lift`` checks it).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

from .algebra import INFINITY, BiPoly, Coeff, Residual
from .chardata import Branch
from .errors import CurveLiftError, InvariantError
from .oracle import resultant_implicitize
from .parametrize import ValuationTable, truncation, valuation_table
from .polygon import polygon_contains, polygon_desc
from .semigroup import generators, normal_form
from .weierstrass import basis_reconstruct, is_weierstrass

DEFAULT_ORACLE_BOUND = 12  # certify runs the norm oracle where e_i <= bound
# the largest slice bound e_i*deg(yt) lift accepts. It bounds a k = 4 lift:
# implicitize --no-verify peaks at 387 MB RSS there (770 MB at 2**24;
# CPython 3.11, x86-64). Memory also grows with k_i**2, since the residual
# keeps the powers 0..k_i of each packed pullback: a one-level k = 2895
# file below the ceiling peaks at 1.6 GB
MAX_SLICE_BOUND = 2**23


@dataclass(frozen=True)
class IterationRecord:
    """One elimination step: the order killed, the chosen basis tuple and
    the solved coefficient."""

    n: int
    pivot: tuple[int, ...]
    coeff: Coeff


def _check(label: str | None):
    """A LevelCertificate check. ``label`` is its line in the verify report,
    formatted with the level i, its degree e, the x-vertex a of the compact
    face and the oracle's outcome; None for the valuation rows, which the
    report prints one line each."""
    return field(metadata={"label": label})


@dataclass(frozen=True)
class LevelCertificate:
    """Per-level checks behind the chain's correctness claims, declared
    once: the field order is the JSON key order."""

    level: int
    # the truncation annihilates f_i: its valuation is INFINITY
    pullback_zero: bool = _check("ι_{i}*f_{i} = 0")
    support_in_polygon: bool = _check("Supp(f_{i}) ⊆ N_{i}")
    apex_absent_in_delta: bool = _check("(0,{e}) ∉ Supp(δ_{i})")
    compact_face_present: bool = _check("{{(0,{e}),({a},0)}} ⊆ Supp(f_{i})")
    monic_weierstrass: bool = _check("f_{i} monic Weierstrass of degree {e}")
    # the two log checks are "skipped" on an empty log
    n_log_increasing: bool | str = _check("elimination orders strictly increasing")
    n_log_in_semigroup: bool | str = _check("elimination orders in Γ")
    valuation_rows_ok: bool = _check(None)  # the level-i rows of the valuation table
    oracle: str = _check("resultant oracle: {oracle}")  # "match" | "mismatch" | "skipped"

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
        # every table row has 1 <= i <= s, so the levels' valuation_rows_ok
        # together are the table's ok
        return bool(self.certificates) and all(c.ok for c in self.certificates)


def lift(branch: Branch, fs: tuple[BiPoly, ...], i: int
         ) -> tuple[BiPoly, BiPoly, tuple[IterationRecord, ...]]:
    """Compute (f_i, delta_i, log) from the already-lifted f_1 .. f_{i-1},
    taking each step's pivot from the semigroup normal form of its order.

    The normal form is formed once per residue class n mod e_i, on the
    class's first step, and kept under r for this call; the residual keeps
    the class's basis product under its betas. Each holds at most e_i
    entries (see the module docstring). Basis pullbacks whose
    orders are not gamma_1 .. gamma_i, a pivot with alpha < 0 or with VE.ls
    above the slice bound (no basis tuple of the slice) and betas that miss
    v_r each raise InvariantError, the first before any step.
    """
    cd = branch.cd
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    if len(fs) < i - 1:
        raise ValueError(f"lift to level {i} needs f_1..f_{i - 1}")
    k_i = cd.ks[i - 1]
    p = truncation(branch, i)
    bound = p.e * p.yt.degree()
    if bound > MAX_SLICE_BOUND:
        raise CurveLiftError(f"level {i}: slice bound e_{i}*deg(yt) = {bound} "
                             f"is above {MAX_SLICE_BOUND}")

    # pullbacks of the basis: yt for f_0 = y, then f_1 .. f_{i-1}
    pullbacks = [p.yt, *(p.pullback(f) for f in fs[:i - 1])]
    sd = generators(cd, i)
    orders = tuple(u.order() for u in pullbacks)
    if orders != sd.gamma:
        raise InvariantError(f"level {i}: basis pullback orders {orders} are not "
                             f"the generators {sd.gamma}; corrupt input or bug")

    # ls = pullback degrees of f_0, ..., f_{i-1}, the weights of the betas
    # in VE.ls (x weighs e_i); the bound encodes the support polygon
    ls = tuple(u.degree() for u in pullbacks)

    u = Residual(pullbacks, k_i)

    budget = bound - p.e * sd.gamma[0] + 1
    log: list[IterationRecord] = []
    e = p.e
    # per class r = n mod e_i: (v_r, the highest order under the bound, betas),
    # filled on the class's first step: a level may visit few of its e_i
    # classes (the one level of k = 2**22 with y = t visits one)
    classes: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    while (n := u.order()) is not INFINITY:
        if len(log) >= budget:
            raise InvariantError(
                f"level {i}: more than {budget} iterations; internal error")
        r = n % e
        first = r not in classes
        if first:
            pivot = normal_form(n, sd)
            v, betas = n - e * pivot[0], pivot[1:]
            classes[r] = (v, bound - sum(b * l for b, l in zip(betas, ls)) + v, betas)
        v, top, betas = classes[r]
        pivot = ((n - v) // e, *betas)
        if n < v:
            raise InvariantError(
                f"level {i}: no basis tuple of order {n}; corrupt input or bug")
        if n > top:
            raise InvariantError(
                f"level {i}: no basis tuple of order {n}: the normal form "
                f"{pivot} is above the bound {bound}; corrupt input or bug")
        if first and sum(b * g for b, g in zip(betas, sd.gamma)) != v:
            raise InvariantError(
                f"level {i}: basis product {pivot} misses order {n}")
        log.append(IterationRecord(n=n, pivot=pivot, coeff=u.eliminate(betas)))

    delta = basis_reconstruct([(rec.coeff, rec.pivot) for rec in log], fs[:i - 1])
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

    Each level's truncation and generators are built once here and shared
    by the valuation table and the level checks. ``lift`` builds its own:
    it is a separate pass, and the certificates stay recomputable from
    (branch, fs) alone, as ``chain_from_polynomials`` needs, except for the
    iteration-log checks, which report "skipped" when a level's log is empty.

    ``pullback_zero`` and ``monic_weierstrass`` alone pin f_i at every
    degree: every Branch is validated when it is built, so each truncation
    is primitive, yt has degree e_i over Q(x), x = t**e_i, and a monic f of
    y-degree e_i that vanishes on the truncation is yt's minimal
    polynomial, the norm the oracle computes.
    """
    branch = chain.branch
    cd = branch.cd
    levels = [(truncation(branch, i), generators(cd, i)) for i in range(1, cd.s + 1)]
    table = valuation_table(chain.fs, levels, cd.lambdas)
    certs = []
    for i, (p, sd) in enumerate(levels, start=1):
        f_i, delta_i, log = chain.fs[i - 1], chain.deltas[i - 1], chain.logs[i - 1]
        pd = polygon_desc(p)
        certs.append(LevelCertificate(
            level=i,
            pullback_zero=p.valuation(f_i) is INFINITY,
            support_in_polygon=all(polygon_contains(key, pd) for key in f_i.support()),
            apex_absent_in_delta=(0, p.e) not in delta_i.support(),
            compact_face_present=set(pd.vertices[:2]) <= f_i.support(),
            monic_weierstrass=is_weierstrass(f_i) == (True, p.e),
            n_log_increasing=all(a.n < b.n for a, b in zip(log, log[1:]))
            if log else "skipped",
            # each logged pivot is its own witness: non-negative, with
            # pivot . (e_i, gamma_1, ..., gamma_i) == n in plain ints
            n_log_in_semigroup=all(
                len(rec.pivot) == len(sd.gamma) + 1 and min(rec.pivot) >= 0
                and sum(c * w for c, w in zip(rec.pivot, (sd.free, *sd.gamma))) == rec.n
                for rec in log) if log else "skipped",
            valuation_rows_ok=all(r.ok for r in table.rows if r.i == i),
            oracle="skipped" if p.e > oracle_bound
            else "match" if resultant_implicitize(p) == f_i else "mismatch"))
    return replace(chain, certificates=tuple(certs), table=table)


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
