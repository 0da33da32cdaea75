"""Shared test helpers: random instance generators and naive oracles.

The oracles here are deliberately dumb (exhaustive loops, cofactor
determinants, DP sieves) and independent of the package's algorithms; the
property suites compare the two.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd, prod
from pathlib import Path

from curvelift import (INFINITY, BiPoly, Coeff, PolygonDesc, UniPoly, basis_reconstruct,
                       generators, truncation, validate_branch)
from curvelift.algebra import coeff_div, sylvester_det
from curvelift.chardata import split_tails
from curvelift.implicitize import IterationRecord
from curvelift.polygon import SliceQuery, lattice_slice
from curvelift.semigroup import SemigroupDesc


def run_optimized(code: str) -> str:
    """stdout of ``code`` run under ``python -O``, where bare asserts vanish."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)},
                         check=True)
    return out.stdout


def rand_coeff(rng, small=False):
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = 1 if small else rng.choice([1, 1, 2, 3])
    f = Fraction(num, den)
    return f.numerator if f.denominator == 1 else f


def rand_branch(rng, max_levels=3, factors=(2, 3), max_k=12,
                tail_prob=0.5, int_coeffs=False):
    """A random valid branch, built from a random factor chain and random
    exponent/tail choices; always round-trips through validate_branch."""
    while True:
        s = rng.randint(1, max_levels)
        ks = [rng.choice(factors) for _ in range(s)]
        if 2 <= prod(ks) <= max_k:
            break
    k = prod(ks)
    # characteristic exponents: m_i = g_i * t with gcd(t, k_i) = 1
    g = k
    char_exps = []
    m_prev = 0
    for ki in ks:
        g_new = g // ki
        t = m_prev // g_new + 1
        while gcd(t, ki) != 1 or g_new * t <= m_prev:
            t += 1
        t += rng.choice([0, ki, 2 * ki])  # keep coprimality, vary the size
        char_exps.append(g_new * t)
        m_prev = g_new * t
        g = g_new
    terms = {m: rand_coeff(rng, small=int_coeffs) for m in char_exps}
    # tails: multiples of the level lattice stride inside each window
    es = [1]
    for ki in ks:
        es.append(es[-1] * ki)
    for i in range(s):
        stride = k // es[i + 1]
        lo = char_exps[i]
        hi = char_exps[i + 1] if i + 1 < s else char_exps[i] + 3 * stride + k
        cands = [m for m in range(lo + stride, hi, stride)
                 if m % k and m not in terms]
        for m in cands:
            if rng.random() < tail_prob / max(1, len(cands)) * 2:
                terms[m] = rand_coeff(rng, small=int_coeffs)
    return validate_branch(k, terms)


def rand_bipoly(rng, max_exp=6, max_terms=5, small=False):
    n = rng.randint(1, max_terms)
    terms = {}
    for _ in range(n):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = rand_coeff(rng, small=small)
    return BiPoly(terms)


def rand_unipoly(rng, max_exp=8, max_terms=4):
    n = rng.randint(0, max_terms)
    return UniPoly({rng.randint(0, max_exp): rand_coeff(rng) for _ in range(n)})


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------

def naive_uni_mul(a: UniPoly, b: UniPoly) -> dict:
    """Coefficients {exponent: nonzero value} of a*b by schoolbook
    convolution over the exact coefficients."""
    out = {}
    for e1, v1 in a.terms():
        for e2, v2 in b.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def naive_bi_mul(a: BiPoly, b: BiPoly) -> dict:
    """Coefficients {(x-power, y-power): nonzero value} of a*b by schoolbook
    products of the exact coefficients."""
    out = {}
    for (a1, b1), v1 in a.terms():
        for (a2, b2), v2 in b.terms():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + Fraction(v1) * v2
    return {k: v for k, v in out.items() if v}


def naive_pullback(f: BiPoly, e: int, yt: UniPoly) -> UniPoly:
    """f(t**e, yt(t)) expanded term by term: c * x**a * y**b becomes
    c * t**(e*a) * yt**b, with yt**b built by schoolbook products."""
    ypows = [{0: 1}]
    total = {}
    for (a, b), c in f.terms():
        while len(ypows) <= b:
            ypows.append(naive_uni_mul(UniPoly(ypows[-1]), yt))
        for n, v in ypows[b].items():
            total[e * a + n] = total.get(e * a + n, 0) + c * v
    return UniPoly(total)


def naive_basis_reconstruct(terms, fs) -> BiPoly:
    """sum c * x**alpha * y**beta_0 * f_1**beta_1 * ... term by term, each
    product formed in full."""
    total = BiPoly.zero()
    for c, (alpha, beta_0, *betas) in terms:
        prod_ = BiPoly.monomial(alpha, beta_0, c)
        for f, b in zip(fs, betas, strict=True):
            prod_ = prod_ * f ** b
        total = total + prod_
    return total


def reference_lift(branch, fs, i, pivot_rule="min", trail=None):
    """(f_i, delta_i, log) by the elimination loop on immutable ``UniPoly``
    values: each basis product is built in full, the monomial t**(e*alpha)
    included, and u = u + u_p * a makes a new pullback every step. The
    pivot is the smallest ("min") or largest ("max") tuple of the whole
    ``lattice_slice``, without the tuple of f_{i-1}**k_i on the first step.
    With a ``trail`` list, every u after a step is appended to it."""
    cd = branch.cd
    k_i = cd.ks[i - 1]
    p = truncation(branch, i)
    pullbacks = [p.pullback(f) for f in (BiPoly.y(), *fs[:i - 1])]
    sd = generators(cd, i)
    sg = (sd.free, *sd.gamma)
    ls = (p.e,) + tuple(u.degree() for u in pullbacks)
    bound = p.e * pullbacks[0].degree()
    u = pullbacks[-1] ** k_i
    log = []
    g = (0,) * i + (k_i,)     # the tuple of f_{i-1}**k_i itself
    while (n := u.order()) is not INFINITY:
        slab = [ve for ve in lattice_slice(SliceQuery(n=n, sg=sg, ls=ls, bound=bound))
                if log or ve != g]
        pivot = slab[0] if pivot_rule == "min" else slab[-1]
        u_p = UniPoly({p.e * pivot[0]: 1})
        for l, b in enumerate(pivot[1:]):
            if b:
                u_p = u_p * pullbacks[l] ** b
        a = coeff_div(-u.coeff(n), u_p.coeff(n))
        u = u + u_p * a
        log.append(IterationRecord(n=n, pivot=pivot, coeff=a))
        if trail is not None:
            trail.append(u)
    delta = basis_reconstruct([(r.coeff, r.pivot) for r in log], fs[:i - 1])
    f_i = (fs[i - 2] if i > 1 else BiPoly.y()) ** k_i + delta
    return f_i, delta, tuple(log)


def naive_det(m: list[list[BiPoly]]) -> BiPoly:
    """Cofactor expansion along the first row; fine up to ~7x7."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = BiPoly.zero()
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * naive_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


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


def sylvester_implicitize(p) -> tuple[BiPoly, Coeff, BiPoly]:
    """(monic, unit, raw): the resultant of x - t**e and y - yt(t) with
    respect to t as a fraction-free Sylvester determinant (raw), its
    coefficient of y**e (unit) and raw / unit. The classical elimination
    the norm oracle is compared against."""
    e = p.e
    # x - t**e: coefficient -1 at t**e, x at t**0
    pc = {e: BiPoly({(0, 0): -1}), 0: BiPoly.monomial(1, 0)}
    # y - yt(t): coefficient -c at each yt term, y at t**0
    qc = {m: BiPoly({(0, 0): -c}) for m, c in p.yt.terms()}
    qc[0] = qc.get(0, BiPoly.zero()) + BiPoly.y()
    raw = sylvester_det(sylvester_matrix(pc, qc))
    unit = raw.coeff((0, e))
    assert unit, "resultant is not monic-normalizable"
    return raw * coeff_div(1, unit), unit, raw


def tail_mu(branch, i: int) -> Fraction:
    """deg(phi_i)/k from the tail split; lambda_i when the tail is empty."""
    phi = split_tails(branch.cd, branch.terms)[1][i - 1]
    return branch.cd.lambdas[i - 1] if phi.is_zero else Fraction(phi.degree(), branch.k)


def tail_polygon(branch, i: int) -> PolygonDesc:
    """N_i built from the characteristic data: lambda_1 for the lower edge
    and tail_mu for the upper one, not from the truncation."""
    cd = branch.cd
    e_i, k1, lam1, mu_i = cd.es[i], cd.ks[0], cd.lambdas[0], tail_mu(branch, i)
    k1lam1, e_lam1, e_mu = k1 * lam1, e_i * lam1, e_i * mu_i
    assert k1lam1.denominator == e_lam1.denominator == e_mu.denominator == 1
    return PolygonDesc(
        mu=mu_i,
        lower=(k1, int(k1lam1), e_i * int(k1lam1)),
        upper=(e_i, int(e_mu), e_i * int(e_mu)),
        vertices=((0, e_i), (int(e_lam1), 0), (int(e_mu), 0)),
    )


def naive_slice(q: SliceQuery) -> list[tuple[int, ...]]:
    """Nested-loop enumeration bounded coordinatewise by n // weight."""
    ranges = [range(q.n // w + 1) for w in q.sg]
    out = []
    for ve in product(*ranges):
        if sum(c * w for c, w in zip(ve, q.sg)) == q.n and \
                sum(c * l for c, l in zip(ve, q.ls)) <= q.bound:
            out.append(ve)
    return sorted(out)


def brute_semigroup_1d(gens: list[int], limit: int) -> list[bool]:
    """reach[v] == True iff v is a non-negative combination of gens."""
    reach = [False] * (limit + 1)
    reach[0] = True
    for v in range(1, limit + 1):
        for g in gens:
            if g <= v and reach[v - g]:
                reach[v] = True
                break
    return reach


def brute_capped_forms(a: int, sd: SemigroupDesc):
    """All (alpha, betas) with capped betas representing a; the normal form
    is unique, so this should have length one for group members."""
    sols = []
    for betas in product(*[range(kj) for kj in sd.ks]):
        r = a - sum(b * g for b, g in zip(betas, sd.gamma))
        if r % sd.free == 0:
            sols.append((r // sd.free, betas))
    return sols
