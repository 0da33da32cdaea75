import random
from fractions import Fraction
from pathlib import Path

import pytest

from curvelift import (BiPoly, BranchInput, Parametrization, certify, generators,
                       implicitize_all, lift, resultant_implicitize,
                       semigroup_member, truncation, validate_branch)
from curvelift.cli import branch_from_file, load_curve
from curvelift.implicitize import chain_from_polynomials
from curvelift.oracle import DEFAULT_ORACLE_BOUND
from helpers import rand_branch

F1 = BiPoly({(0, 2): 1, (3, 0): -1})
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_base_equation_closed_forms(cusp, branch12):
    assert lift(cusp, (), 1)[0] == F1
    assert lift(branch12, (), 1)[0] == F1
    # rational coefficient: y^2 - c^2 x^3
    b = validate_branch(BranchInput.from_terms(2, {3: Fraction(2, 3)}))
    assert lift(b, (), 1)[0] == BiPoly({(0, 2): 1, (3, 0): -Fraction(4, 9)})
    # lambda_1 = p/q tail-free: y^q - c^q x^p
    b2 = validate_branch(BranchInput.from_terms(5, {7: 2}))
    assert lift(b2, (), 1)[0] == BiPoly({(0, 5): 1, (7, 0): -32})


def test_lift_reference_level2(branch12):
    f2, delta2, log = lift(branch12, (F1,), 2)
    assert f2 == F1 ** 3 + BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    assert delta2 == BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})
    assert [rec.n for rec in log] == [57, 58, 60]
    assert log[0].pivot == (5, 3, 0)


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
    assert res.monic == chain.fs[1]


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
    for b in (branch12, branch6_tails):
        lo = implicitize_all(b, verify=False, pivot_rule="min")
        hi = implicitize_all(b, verify=False, pivot_rule="max")
        assert lo.fs == hi.fs


def test_pivot_rule_rejects_unknown(branch12):
    with pytest.raises(ValueError):
        lift(branch12, (), 1, pivot_rule="median")


def test_chain_from_polynomials_roundtrip(branch12, chain12):
    rebuilt = chain_from_polynomials(branch12, chain12.fs)
    assert rebuilt.fs == chain12.fs
    assert rebuilt.deltas == chain12.deltas
    cert = certify(rebuilt)
    assert cert.ok


def test_four_level_chain():
    # k_i = (2, 2, 2, 2): lambdas (3/2, 9/4, 21/8, 45/16)
    b = validate_branch(BranchInput.from_terms(16, {24: 1, 36: 1, 42: 1, 45: 1}))
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
    # on a "match" the oracle's self-check has pulled back f_i, and certify
    # takes pullback_zero from it instead of a second pullback
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
