"""Randomized property suites, run by acceptance criterion 5. Each suite
runs `cases` independent seeded trials and raises AssertionError on the
first violation."""

from __future__ import annotations

import random
from math import gcd

from curvelift import (INFINITY, BiPoly, basis_reconstruct, generators,
                       implicitize_all, lattice_slice, mu, normal_form,
                       polygon_contains, polygon_desc, semigroup_member,
                       truncation)
from curvelift.polygon import SliceQuery
from helpers import (brute_capped_forms, naive_basis_reconstruct, naive_slice,
                     rand_bipoly, rand_branch, rand_coeff, reference_lift)


def suite_valuation_additivity(seed=0x51, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng, max_levels=2, max_k=9)
        p = truncation(b, rng.randint(1, b.cd.s))
        f, g = rand_bipoly(rng, 4, 4), rand_bipoly(rng, 4, 4)
        vf, vg, vfg = p.valuation(f), p.valuation(g), p.valuation(f * g)
        if vf is INFINITY or vg is INFINITY:
            assert vfg is INFINITY
        else:
            assert vfg == vf + vg
        vs = p.valuation(f + g)
        if vf is not INFINITY and vg is not INFINITY:
            if vf != vg:
                assert vs == min(vf, vg)
            else:
                assert vs is INFINITY or vs >= vf


def suite_valuations_in_semigroup(seed=0x52, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng, max_levels=2, max_k=9)
        i = rng.randint(1, b.cd.s)
        v = truncation(b, i).valuation(rand_bipoly(rng, 4, 4))
        if v is not INFINITY:
            assert semigroup_member(v, generators(b.cd, i))


def suite_normal_form_roundtrip(seed=0x53, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng)
        sd = generators(b.cd, rng.randint(1, b.cd.s))
        a = sd.free * rng.randint(-4, 8) + sum(
            rng.randint(-3, 5) * g for g in sd.gamma)
        nf = normal_form(a, sd)
        assert sd.free * nf[0] + sum(b * g for b, g in zip(nf[1:], sd.gamma)) == a
        assert all(0 <= bb < kj for bb, kj in zip(nf[1:], sd.ks))
        assert brute_capped_forms(a, sd) == [(nf[0], nf[1:])]


def suite_conductor_window(seed=0x54, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng, max_levels=2, max_k=9)
        sd = generators(b.cd, b.cd.s)
        c = sum((k - 1) * g for k, g in zip(sd.ks, sd.gamma))
        top = c + sd.free * max(sd.gamma)
        for a in range(c, top + 1):
            if a % gcd(sd.free, *sd.gamma) == 0:
                assert semigroup_member(a, sd)


def suite_slice_vs_naive(seed=0x55, cases=250):
    rng = random.Random(seed)
    for _ in range(cases):
        m = rng.randint(1, 4)
        sg = tuple(rng.randint(1, 12) for _ in range(m))
        ls = tuple(w + rng.randint(0, 6) for w in sg)
        q = SliceQuery(n=rng.randint(0, 60), sg=sg, ls=ls,
                       bound=rng.randint(0, 80))
        assert lattice_slice(q) == naive_slice(q)


def suite_polygon_vs_pullback(seed=0x56, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng, max_levels=2, max_k=9)
        i = rng.randint(1, b.cd.s)
        pd = polygon_desc(b, i)
        p = truncation(b, i)
        e_i = b.cd.es[i]
        lo = e_i * int(e_i * b.cd.lambdas[0])
        hi = e_i * int(e_i * mu(b, i))
        a, bb = rng.randint(0, 50), rng.randint(0, 50)
        pb = p.pullback(BiPoly.monomial(a, bb))
        inside = pb.order() >= lo and pb.degree() <= hi
        assert polygon_contains((a, bb), pd) == inside


def suite_basis_reconstruct(seed=0x57, cases=200):
    rng = random.Random(seed)
    chain = None
    for trial in range(cases):
        if trial % 50 == 0:
            chain = implicitize_all(rand_branch(rng, max_levels=3, max_k=12),
                                    verify=False)
        i = rng.randint(1, chain.cd.s)
        fs = chain.fs[:i - 1]
        # betas up to 4 cross the caps beta_0 < e_1 and beta_l < k_{l+1}
        terms = [(rand_coeff(rng), (rng.randint(0, 6),
                                    *(rng.randint(0, 4) for _ in range(i))))
                 for _ in range(rng.randint(0, 5))]
        assert basis_reconstruct(terms, fs) == naive_basis_reconstruct(terms, fs)


def suite_increasing_orders(seed=0x58, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng, max_levels=3, max_k=12)
        chain = implicitize_all(b, verify=False)
        for i, log in enumerate(chain.logs, start=1):
            ns = [rec.n for rec in log]
            assert all(x < y for x, y in zip(ns, ns[1:]))
            sd = generators(b.cd, i)
            assert all(semigroup_member(n, sd) for n in ns)


def suite_pivot_independence(seed=0x59, cases=200):
    rng = random.Random(seed)
    for _ in range(cases):
        b = rand_branch(rng, max_levels=3, max_k=12)
        fs = implicitize_all(b, verify=False).fs
        for i in range(1, b.cd.s + 1):
            assert reference_lift(b, fs, i, "min")[0] == fs[i - 1]


ALL_SUITES = [
    ("valuation additivity/superadditivity", suite_valuation_additivity),
    ("finite valuations in the value semigroup", suite_valuations_in_semigroup),
    ("normal form round-trip and uniqueness", suite_normal_form_roundtrip),
    ("conductor-substitute window", suite_conductor_window),
    ("lattice slice vs naive enumeration", suite_slice_vs_naive),
    ("polygon membership vs pullback interval", suite_polygon_vs_pullback),
    ("basis reconstruction vs per-term products", suite_basis_reconstruct),
    ("strictly increasing elimination orders", suite_increasing_orders),
    ("pivot-rule independence", suite_pivot_independence),
]
