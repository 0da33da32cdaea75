import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from curvelift import (BiPoly, Parametrization, UniPoly, certify,
                       generators, implicitize_all, lattice_slice, lift,
                       resultant_implicitize, semigroup_member, truncation,
                       validate_branch)
from curvelift.algebra import Residual
from curvelift.cli import branch_from_file, load_curve
from curvelift.errors import InvariantError
from curvelift.implicitize import DEFAULT_ORACLE_BOUND, chain_from_polynomials, lift_levels
from curvelift.polygon import SliceQuery
from helpers import rand_branch, reference_lift

F1 = BiPoly({(0, 2): 1, (3, 0): -1})
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_base_equation_closed_forms(cusp, branch12):
    assert lift(cusp, (), 1)[0] == F1
    assert lift(branch12, (), 1)[0] == F1
    # rational coefficient: y^2 - c^2 x^3
    b = validate_branch(2, {3: Fraction(2, 3)})
    assert lift(b, (), 1)[0] == BiPoly({(0, 2): 1, (3, 0): -Fraction(4, 9)})
    # lambda_1 = p/q tail-free: y^q - c^q x^p
    b2 = validate_branch(5, {7: 2})
    assert lift(b2, (), 1)[0] == BiPoly({(0, 5): 1, (7, 0): -32})


def test_lift_reference_level2(branch12):
    f2, delta2, log = lift(branch12, (F1,), 2)
    assert f2 == F1 ** 3 + BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    assert delta2 == BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    # by hand: the slice of order 57 is (0, 0, 3) = f_1**3 itself, (5, 3, 0)
    # and (8, 1, 0); orders 58 and 60 each have one tuple. So the largest
    # pivots are (8, 1, 0), (5, 1, 1), (10, 0, 0), and
    # -8*x^8*y - 2*x^5*y*f_1 + x^10 is delta2
    assert [(rec.n, rec.pivot, rec.coeff) for rec in log] == [
        (57, (8, 1, 0), -8), (58, (5, 1, 1), -2), (60, (10, 0, 0), 1)]
    for j, rec in enumerate(log):
        q = SliceQuery(n=rec.n, sg=(6, 9, 19), ls=(6, 10, 20), bound=60)
        slab = [ve for ve in lattice_slice(q) if j or ve != (0, 0, 3)]
        assert rec.pivot == slab[-1], rec


def test_full_chain_reference(branch12, chain12):
    assert len(chain12.fs) == 3
    assert truncation(branch12, 3).valuation(chain12.fs[1]) == 117
    assert chain12.ok


def test_single_level_chain(cusp):
    chain = implicitize_all(cusp, verify=True)
    assert len(chain.fs) == 1 and chain.ok


def test_chain_with_tails_matches_oracle(branch6_tails):
    chain = implicitize_all(branch6_tails, verify=True)
    assert chain.ok
    p2 = truncation(branch6_tails, 2)
    res = resultant_implicitize(p2)
    assert res == chain.fs[1]


def test_logged_orders_increase_and_stay_in_semigroup(branch6_tails):
    chain = implicitize_all(branch6_tails, verify=False)
    for i, log in enumerate(chain.logs, start=1):
        ns = [rec.n for rec in log]
        assert ns == sorted(set(ns))
        sd = generators(branch6_tails.cd, i)
        assert all(semigroup_member(n, sd) for n in ns)


def test_support_and_monic_invariants(branch12, chain12):
    cd = branch12.cd
    for i, (f, d) in enumerate(zip(chain12.fs, chain12.deltas), start=1):
        e_i = cd.es[i]
        assert f.coeff((0, e_i)) == 1 and f.deg_y() == e_i
        assert (0, e_i) not in d.support()
        assert {(0, e_i), (int(e_i * cd.lambdas[0]), 0)} <= f.support()
        assert f - d == (BiPoly.y() if i == 1 else chain12.fs[i - 2]) ** cd.ks[i - 1]


def test_pivot_rule_independence_reference(branch12, branch6_tails):
    # f_i is unique: solving for the smallest slice tuple gives lift's f_i
    for b in (branch12, branch6_tails):
        fs = implicitize_all(b, verify=False).fs
        for i in range(1, b.cd.s + 1):
            assert reference_lift(b, fs, i, "min")[0] == fs[i - 1], i


def test_lift_matches_reference_loop(corpus_chains, monkeypatch):
    # lift's residual against the loop on immutable UniPoly values that
    # takes the largest tuple of the whole slice: the same (f_i, delta_i,
    # log), and after every step the same canonical fields, so a residual
    # whose gcd reduction is skipped (same log, bloated numerators) fails too
    states = []
    eliminate = Residual.eliminate

    def recording(self, product, shift):
        a = eliminate(self, product, shift)
        c = {e: v for e, v in enumerate(self._u) if v}
        states.append(UniPoly._raw(c, self._d))
        return a

    monkeypatch.setattr(Residual, "eliminate", recording)
    cases = [(name, b, chain.fs)
             for name, (b, chain, _) in sorted(corpus_chains.items())]
    rng = random.Random(0x12)
    for j in range(40):
        b = rand_branch(rng, max_levels=3, max_k=12)
        cases.append((f"random-{j}", b, implicitize_all(b, verify=False).fs))
    assert sum(any(b.phis) for _, b, _ in cases) >= 20
    assert sum(any(type(c) is Fraction for _, c in b.terms) for _, b, _ in cases) >= 20
    for label, b, fs in cases:
        for i in range(1, b.cd.s + 1):
            states.clear()
            trail = []
            ref = reference_lift(b, fs, i, "max", trail=trail)
            assert lift(b, fs, i) == ref, (label, i)
            assert states == trail, (label, i)


def test_lift_forms_each_basis_product_once(corpus_chains, monkeypatch):
    # the steps of a level that share a beta tuple share its product:
    # lift forms one Kronecker product per distinct beta tuple of the log
    import curvelift.implicitize as implicitize
    calls = []
    kronecker_mul = implicitize._kronecker_mul

    def counting(maps):
        calls.append(len(maps))
        return kronecker_mul(maps)

    monkeypatch.setattr(implicitize, "_kronecker_mul", counting)
    reused = {}
    for name, (b, chain, _) in sorted(corpus_chains.items()):
        for i, log in enumerate(chain.logs, start=1):
            calls.clear()
            assert lift(b, chain.fs, i)[2] == log, (name, i)
            distinct = {rec.pivot[1:] for rec in log}
            assert len(calls) == len(distinct), (name, i)
            reused[name, b.cd.es[i]] = len(log) - len(distinct)
    assert reused["paper-ex3", 30] > 0


def test_lift_pulls_back_each_earlier_f_once(corpus_chains, monkeypatch):
    # the basis pullbacks start at p.yt, the truncation's image of y: lift
    # at level i pulls back f_1 .. f_{i-1} once each and nothing else
    seen = []
    pullback = Parametrization.pullback

    def counting(self, f):
        seen.append(f)
        return pullback(self, f)

    monkeypatch.setattr(Parametrization, "pullback", counting)
    levels = 0
    for name, (b, chain, _) in sorted(corpus_chains.items()):
        for i, log in enumerate(chain.logs, start=1):
            seen.clear()
            assert lift(b, chain.fs, i)[2] == log, (name, i)
            assert seen == list(chain.fs[:i - 1]), (name, i)
            levels += 1
    assert levels > len(corpus_chains)


def test_largest_slice_tuple_is_the_normal_form(corpus_chains):
    # lift takes each pivot from normal_form and builds no slice; the
    # reference enumeration, minus f_{i-1}**k_i on the first step, has that
    # pivot as its lexicographically largest tuple on every step
    branches = [b for b, _, _ in corpus_chains.values()]
    rng = random.Random(0x13)
    branches += [rand_branch(rng, max_levels=3, max_k=12) for _ in range(40)]
    checked = 0
    for b in branches:
        fs = []
        for i, (f_i, _, log) in enumerate(lift_levels(b), start=1):
            p = truncation(b, i)
            sd = generators(b.cd, i)
            pullbacks = [p.pullback(f) for f in (BiPoly.y(), *fs)]
            fs.append(f_i)
            sg = (sd.free, *sd.gamma)
            ls = (p.e, *(u.degree() for u in pullbacks))
            bound = p.e * pullbacks[0].degree()
            g = (0,) * i + (b.cd.ks[i - 1],)
            for j, rec in enumerate(log):
                q = SliceQuery(n=rec.n, sg=sg, ls=ls, bound=bound)
                slab = [ve for ve in lattice_slice(q) if j or ve != g]
                assert rec.pivot == slab[-1], (b.k, b.terms, i, rec.n)
            checked += len(log)
    assert checked == 1551


@pytest.mark.parametrize("name, value, message", [
    ("normal_form", lambda a, sd: (-3, 0, 1), "no basis tuple of order"),
    ("normal_form", lambda a, sd: (2, 5, 0), "is above the bound"),
    ("normal_form", lambda a, sd: (1, 0, 0), "misses order"),
    ("Residual.eliminate", lambda self, product, shift: 1, "more than"),
    ("basis_reconstruct", lambda terms, fs: BiPoly.y(6), "is not monic"),
])
def test_lift_invariant_errors(branch12, name, value, message, monkeypatch):
    # at level 2 the first order is 57 = 6*alpha + 9*beta_0 + 19*beta_1
    # under the bound 60 on 6*alpha + 10*beta_0 + 20*beta_1. The normal form
    # of 1, a non-member (alpha < 0, inside the bound), a tuple of order 57
    # above the bound (62), a tuple of another order, a residual that does
    # not move and a non-monic sum are typed errors, raised (not asserted)
    # so that python -O keeps them
    import curvelift.implicitize as implicitize
    owner = Residual if "." in name else implicitize
    monkeypatch.setattr(owner, name.split(".")[-1], value)
    with pytest.raises(InvariantError, match=message):
        lift(branch12, (F1,), 2)


def test_log_witness_mutants_fail_certificate(branch12):
    # n_log_in_semigroup checks each logged pivot as a witness of its order
    # in plain ints: one coordinate moved by one, or a representation with
    # a negative coordinate, turns it false at that level only
    chain = implicitize_all(branch12, verify=False)
    assert all(c.n_log_in_semigroup is True
               for c in certify(chain, oracle_bound=0).certificates)

    def mutated(i, j, pivot):
        logs = list(chain.logs)
        log = list(logs[i - 1])
        log[j] = replace(log[j], pivot=pivot)
        logs[i - 1] = tuple(log)
        return certify(replace(chain, logs=tuple(logs)), oracle_bound=0)

    for i, log in enumerate(chain.logs, start=1):
        j = len(log) // 2
        pivot = log[j].pivot
        for c in range(len(pivot)):
            bumped = pivot[:c] + (pivot[c] + 1,) + pivot[c + 1:]
            verdicts = [cert.n_log_in_semigroup
                        for cert in mutated(i, j, bumped).certificates]
            assert verdicts == [level != i for level in range(1, 4)], (i, c)
    # level 2, order 57: (8, 1, 0) and (-1, 7, 0) both give 6*a + 9*b + 19*c
    assert chain.logs[1][0].pivot == (8, 1, 0)
    verdicts = [cert.n_log_in_semigroup
                for cert in mutated(2, 0, (-1, 7, 0)).certificates]
    assert verdicts == [True, False, True]


def test_chain_from_polynomials_roundtrip(branch12, chain12):
    rebuilt = chain_from_polynomials(branch12, chain12.fs)
    assert rebuilt.fs == chain12.fs
    assert rebuilt.deltas == chain12.deltas
    cert = certify(rebuilt)
    assert cert.ok


def test_four_level_chain():
    # k_i = (2, 2, 2, 2): lambdas (3/2, 9/4, 21/8, 45/16)
    b = validate_branch(16, {24: 1, 36: 1, 42: 1, 45: 1})
    assert b.cd.ks == (2, 2, 2, 2) and b.cd.es == (1, 2, 4, 8, 16)
    chain = implicitize_all(b, verify=True)
    assert chain.ok
    assert [f.deg_y() for f in chain.fs] == [2, 4, 8, 16]


def test_random_chains_certify():
    rng = random.Random(0x10)
    for _ in range(40):
        b = rand_branch(rng, max_levels=3, max_k=12)
        chain = implicitize_all(b, verify=True)
        assert chain.ok, (b.k, b.terms)


def test_coefficients_are_normalized_random():
    # algebra's invariant: an integral value is stored as int, never Fraction(n, 1)
    rng = random.Random(0x11)
    for _ in range(30):
        b = rand_branch(rng, max_levels=3, max_k=12)
        chain = implicitize_all(b, verify=False)
        for poly in chain.fs + chain.deltas:
            for _, c in poly.terms():
                assert type(c) is int or (type(c) is Fraction and c.denominator > 1), \
                    (b.k, b.terms, c)


def test_certify_pulls_back_each_f_i_once(monkeypatch):
    # the oracle runs no pullback, so with the oracle at every level each
    # f_i is still pulled back exactly once, for pullback_zero
    branch = branch_from_file(load_curve(CORPUS / "paper-ex1.curve"))
    assert max(branch.cd.es) <= DEFAULT_ORACLE_BOUND
    chain = implicitize_all(branch, verify=False)
    seen = []
    pullback = Parametrization.pullback

    def counting(self, f):
        seen.append((self.level, f))
        return pullback(self, f)

    monkeypatch.setattr(Parametrization, "pullback", counting)
    chain = certify(chain)
    assert chain.ok
    assert {c.oracle for c in chain.certificates} == {"match"}
    for i, f_i in enumerate(chain.fs, start=1):
        assert sum(level == i and f == f_i for level, f in seen) == 1, i


def test_pullback_zero_ignores_the_oracle(branch12, monkeypatch):
    # pullback_zero is p.pullback(f_i) at every level: an oracle that agrees
    # with a wrong f_2 reports "match", and the pullback still fails there
    chain = implicitize_all(branch12, verify=False)
    fs = list(chain.fs)
    fs[1] = fs[1] + BiPoly.monomial(9, 0)
    bad = replace(chain, fs=tuple(fs))
    monkeypatch.setattr("curvelift.implicitize.resultant_implicitize",
                        lambda p: bad.fs[p.level - 1])
    certs = certify(bad).certificates
    assert [c.oracle for c in certs] == ["match"] * 3
    assert [c.pullback_zero for c in certs] == [True, False, True]
