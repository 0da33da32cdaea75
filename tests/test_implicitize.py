import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from curvelift import (INFINITY, BiPoly, Parametrization, UniPoly, certify,
                       generators, implicitize_all, lift, polygon_contains,
                       polygon_desc, resultant_implicitize, truncation,
                       validate_branch)
from curvelift.algebra import Residual
from curvelift.chardata import split_tails
from curvelift.cli import branch_from_file, load_curve
from curvelift.errors import InvariantError
from curvelift.implicitize import DEFAULT_ORACLE_BOUND, chain_from_polynomials, lift_levels
from curvelift.polygon import SliceQuery, lattice_slice
from curvelift.semigroup import semigroup_member
from helpers import rand_branch, reference_lift, run_optimized

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


def _lift_cases(corpus_chains):
    """(label, branch, fs) for the corpus and 40 seeded random branches, at
    least 20 with tails and 20 with rational coefficients."""
    cases = [(name, b, chain.fs)
             for name, (b, chain, _) in sorted(corpus_chains.items())]
    rng = random.Random(0x12)
    for j in range(40):
        b = rand_branch(rng, max_levels=3, max_k=12)
        cases.append((f"random-{j}", b, implicitize_all(b, verify=False).fs))
    assert sum(any(split_tails(b.cd, b.terms)[1]) for _, b, _ in cases) >= 20
    assert sum(any(type(c) is Fraction for _, c in b.terms) for _, b, _ in cases) >= 20
    return cases


def test_lift_matches_reference_loop(corpus_chains, monkeypatch):
    # lift's residual against the loop on immutable UniPoly values that
    # takes the largest tuple of the whole slice: the same (f_i, delta_i,
    # log), and after every step the same value U/D, decoded and reduced
    states = []
    eliminate = Residual.eliminate

    def recording(self, betas):
        a = eliminate(self, betas)
        states.append(self.value())
        return a

    monkeypatch.setattr(Residual, "eliminate", recording)
    for label, b, fs in _lift_cases(corpus_chains):
        for i in range(1, b.cd.s + 1):
            states.clear()
            trail = []
            ref = reference_lift(b, fs, i, "max", trail=trail)
            assert lift(b, fs, i) == ref, (label, i)
            assert states == trail, (label, i)


def test_lift_repacks_without_width_slack(corpus_chains, monkeypatch):
    # with no spare bits, levels outgrow their first width and repack: the
    # levels are those of the full width, and each repack leaves U/D
    # canonical (decoding and reducing it changes no denominator)
    import curvelift.algebra as algebra
    cases = [(label, b, [lift(b, fs, i) for i in range(1, b.cd.s + 1)])
             for label, b, fs in _lift_cases(corpus_chains)]
    repacks = []
    repack = Residual._repack

    def checked(self, grow):
        repack(self, grow)
        v = self.value()
        assert v._d == self._d and self._b == max(map(abs, v._c.values()))
        repacks.append(self._w)

    monkeypatch.setattr(algebra, "_WIDTH_SLACK", 0)
    monkeypatch.setattr(Residual, "_repack", checked)
    levels = 0
    for label, b, want in cases:
        fs = tuple(f for f, _, _ in want)
        for i in range(1, b.cd.s + 1):
            before = len(repacks)
            assert lift(b, fs, i) == want[i - 1], (label, i)
            levels += len(repacks) > before
    assert len(repacks) >= 10 and levels >= 5


def test_lift_repacks_a_natural_input(monkeypatch):
    # at the shipped width slack, the residual of level 3 (e = 12, 18 steps)
    # outgrows its 472-bit width once, at order 238, and repacks: the chain
    # certifies and matches the oracle at every level, and each level is
    # that of a lift with slack enough never to repack
    import curvelift.algebra as algebra
    b = validate_branch(12, {18: Fraction(286473, 409396), 20: Fraction(668485, 570354),
                             23: Fraction(272921, 62268)})
    repacks = []
    repack = Residual._repack

    def recorded(self, grow):
        repacks.append((self._n, self._w))
        repack(self, grow)

    monkeypatch.setattr(Residual, "_repack", recorded)
    chain = implicitize_all(b, oracle_bound=12)
    assert repacks == [(238, 472)] and [len(log) for log in chain.logs] == [1, 3, 18]
    assert chain.ok and [c.oracle for c in chain.certificates] == ["match"] * 3
    monkeypatch.setattr(algebra, "_WIDTH_SLACK", 64)
    assert list(lift_levels(b)) == list(zip(chain.fs, chain.deltas, chain.logs))
    assert len(repacks) == 1


def test_lift_forms_each_basis_product_once(corpus_chains, monkeypatch):
    # the steps of a level that share a beta tuple share its product: the
    # residual forms the start tuple's product u_{i-1}**k_i, then one
    # product per distinct beta tuple of the log
    calls = []
    product = Residual._product

    def counting(self, betas):
        calls.append(betas)
        return product(self, betas)

    monkeypatch.setattr(Residual, "_product", counting)
    reused = {}
    for name, (b, chain, _) in sorted(corpus_chains.items()):
        for i, log in enumerate(chain.logs, start=1):
            calls.clear()
            assert lift(b, chain.fs, i)[2] == log, (name, i)
            distinct = {rec.pivot[1:] for rec in log}
            start = (0,) * (i - 1) + (b.cd.ks[i - 1],)
            assert calls[0] == start, (name, i)
            assert sorted(calls[1:]) == sorted(distinct), (name, i)
            reused[name, b.cd.es[i]] = len(log) - len(distinct)
    assert reused["paper-ex3", 30] > 0


def test_lift_runs_one_normal_form_per_residue_class(corpus_chains, monkeypatch):
    # the orders of a level that share a class n mod e_i share its normal
    # form's betas: lift calls normal_form once per class, at the class's
    # first order, and reads every later pivot off the class
    import curvelift.implicitize as implicitize
    calls = []
    normal_form = implicitize.normal_form

    def counting(a, sd):
        calls.append(a)
        return normal_form(a, sd)

    monkeypatch.setattr(implicitize, "normal_form", counting)
    steps = forms = 0
    for name, (b, chain, _) in sorted(corpus_chains.items()):
        for i, log in enumerate(chain.logs, start=1):
            calls.clear()
            assert lift(b, chain.fs, i)[2] == log, (name, i)
            firsts: dict[int, int] = {}
            for rec in log:
                firsts.setdefault(rec.n % b.cd.es[i], rec.n)
            assert calls == list(firsts.values()), (name, i)
            steps, forms = steps + len(log), forms + len(calls)
    assert forms < steps


def test_lift_later_class_missing_its_order_is_typed(branch12, monkeypatch):
    # normal_form answers right for the first class; from the second on it
    # lowers alpha by one where it can, so v_r is e_i above the product's
    # order while the order range still holds: that class, not the first
    # step, raises "misses order"
    import curvelift.implicitize as implicitize
    calls = []
    normal_form = implicitize.normal_form

    def lowered(a, sd):
        calls.append(a)
        pivot = normal_form(a, sd)
        if len(calls) > 1 and pivot[0] > 0:
            return (pivot[0] - 1, *pivot[1:])
        return pivot

    monkeypatch.setattr(implicitize, "normal_form", lowered)
    with pytest.raises(InvariantError, match="misses order"):
        lift(branch12, (F1,), 2)
    assert len(calls) > 1


@pytest.mark.parametrize("image", [lambda u: u * UniPoly({1: 1}), lambda u: u.zero()])
def test_lift_checks_the_basis_orders_before_any_step(branch12, image, monkeypatch):
    # at level 2 the basis pullbacks yt and f_1's have the orders
    # gamma = (9, 19); a pullback of f_1 shifted by t (order 20) or zero
    # (no order) fails the level's check before the residual is built
    import curvelift.implicitize as implicitize
    pullback = Parametrization.pullback

    def refuse(*args):
        raise AssertionError("a residual was built")

    monkeypatch.setattr(Parametrization, "pullback", lambda self, f: image(pullback(self, f)))
    monkeypatch.setattr(implicitize, "Residual", refuse)
    with pytest.raises(InvariantError, match="basis pullback orders .* are not the "
                                             r"generators \(9, 19\)"):
        lift(branch12, (F1,), 2)


def test_lift_basis_order_check_survives_optimize():
    # raised, not asserted: python -O keeps the level's order check
    code = ("from curvelift import BiPoly, Parametrization, UniPoly, lift, validate_branch\n"
            "from curvelift.errors import InvariantError\n"
            "pullback = Parametrization.pullback\n"
            "Parametrization.pullback = lambda self, f: pullback(self, f) * UniPoly({1: 1})\n"
            "branch = validate_branch(12, {18: 1, 20: 1, 23: 1})\n"
            "try:\n"
            "    lift(branch, (BiPoly({(0, 2): 1, (3, 0): -1}),), 2)\n"
            "except InvariantError as err:\n"
            "    print('raised' if 'basis pullback orders' in str(err) else err)\n")
    assert run_optimized(code) == "raised\n"


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
    ("Residual.eliminate", lambda self, betas: 1, "more than"),
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
    with pytest.raises(ValueError, match="expected 3 polynomials, got 2"):
        chain_from_polynomials(branch12, chain12.fs[:-1])


def test_lift_rejects_a_level_out_of_range_or_without_its_basis(branch12):
    for i in (0, branch12.cd.s + 1):
        with pytest.raises(IndexError, match=f"level {i} out of range 1..3"):
            lift(branch12, (F1,), i)
    with pytest.raises(ValueError, match="lift to level 2 needs f_1..f_1"):
        lift(branch12, (), 2)


def _three_part_verdict(chain):
    # chain.ok with the valuation table checked on its own as well
    return bool(chain.certificates) and all(c.ok for c in chain.certificates) \
        and chain.table is not None and chain.table.ok


def test_chain_ok_reads_the_table_off_the_levels(corpus_chains, branch12, monkeypatch):
    # every valuation table row has 1 <= i <= s, so the levels'
    # valuation_rows_ok together are table.ok, and chain.ok needs no table
    for name, (_, chain, _) in sorted(corpus_chains.items()):
        assert chain.ok is _three_part_verdict(chain) is True, name
        assert all(c.valuation_rows_ok for c in chain.certificates) is chain.table.ok
    chain = implicitize_all(branch12, verify=False)
    assert chain.ok is _three_part_verdict(chain) is False
    # one row forced false: val_1(f_0) = val_1(y) read one too high
    valuation = Parametrization.valuation

    def off_by_one(self, f):
        v = valuation(self, f)
        return v + 1 if self.level == 1 and f == BiPoly.y() else v

    monkeypatch.setattr(Parametrization, "valuation", off_by_one)
    bad = certify(chain)
    assert [r.ok for r in bad.table.rows].count(False) == 1
    assert [c.valuation_rows_ok for c in bad.certificates] == [False, True, True]
    assert bad.ok is _three_part_verdict(bad) is False


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


def test_certify_runs_no_pullback(branch12, monkeypatch):
    # pullback_zero and the valuation table read every order off
    # Parametrization.valuation, an integer evaluation, never off the lift's
    # pullback; the oracle runs at every level here and pulls nothing back
    paper = branch_from_file(load_curve(CORPUS / "paper-ex1.curve"))
    valuation = Parametrization.valuation
    for branch in (paper, branch12):
        assert max(branch.cd.es) <= DEFAULT_ORACLE_BOUND
        chain = implicitize_all(branch, verify=False)
        before = certify(chain)
        seen = []

        def refuse(self, f):
            raise AssertionError(f"certify pulled back {f!r}")

        def counting(self, f):
            seen.append((self.level, f))
            return valuation(self, f)

        with monkeypatch.context() as m:
            m.setattr(Parametrization, "pullback", refuse)
            m.setattr(Parametrization, "valuation", counting)
            after = certify(chain)
        assert after.ok
        assert {c.oracle for c in after.certificates} == {"match"}
        assert after.certificates == before.certificates
        assert after.table == before.table
        for i, f_i in enumerate(chain.fs, start=1):
            assert sum(level == i and f == f_i for level, f in seen) == 1, i


def test_certify_derives_each_level_once(corpus_chains, monkeypatch):
    # certify builds each level's truncation and generators once and hands
    # them to both the valuation table and the level checks; the table forms
    # d/dy f_{i-1} once per f_0 .. f_{s-1}, not once per cell
    import curvelift.implicitize as implicitize
    import curvelift.parametrize as parametrize
    counts = {"init": 0, "generators": 0, "partial_y": 0}
    init, partial_y = Parametrization.__init__, BiPoly.partial_y

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Parametrization, "__init__", counted("init", init))
    monkeypatch.setattr(BiPoly, "partial_y", counted("partial_y", partial_y))
    # parametrize holds no generators of its own; a call from there counts too
    for module in (implicitize, parametrize):
        monkeypatch.setattr(module, "generators",
                            counted("generators", generators), raising=False)
    for name, (b, chain, _) in sorted(corpus_chains.items()):
        counts.update(dict.fromkeys(counts, 0))
        again = certify(chain)
        assert (again.certificates, again.table) == (chain.certificates, chain.table)
        s = b.cd.s
        assert counts == {"init": s, "generators": s, "partial_y": s}, name


def test_pullback_zero_ignores_the_oracle(branch12, monkeypatch):
    # pullback_zero is p.valuation(f_i) is INFINITY at every level, an
    # integer evaluation the oracle plays no part in: an oracle that agrees
    # with a wrong f_2 reports "match", and pullback_zero still fails there
    chain = implicitize_all(branch12, verify=False)
    fs = list(chain.fs)
    fs[1] = fs[1] + BiPoly.monomial(9, 0)
    bad = replace(chain, fs=tuple(fs))
    monkeypatch.setattr("curvelift.implicitize.resultant_implicitize",
                        lambda p: bad.fs[p.level - 1])
    certs = certify(bad).certificates
    assert [c.oracle for c in certs] == ["match"] * 3
    assert [c.pullback_zero for c in certs] == [True, False, True]


def test_pullback_zero_pins_f_above_the_oracle_bound(corpus_chains):
    # paper-ex3 level 3 has e_3 = 30, above the oracle bound, so there only
    # pullback_zero and monic_weierstrass pin f_3 (see certify): adding 1
    # to any one coefficient, a term of f_3 or another lattice point of N_3
    # below the apex, leaves a finite valuation
    branch, chain, _ = corpus_chains["paper-ex3"]
    p = truncation(branch, 3)
    f_3 = chain.fs[2]
    assert p.e == 30 > DEFAULT_ORACLE_BOUND
    assert chain.certificates[2].oracle == "skipped"
    pd = polygon_desc(p)
    below = {(a, b) for b in range(p.e) for a in range(pd.vertices[2][0] + 1)
             if polygon_contains((a, b), pd)}
    assert f_3.support() - below == {(0, p.e)}
    for a, b in sorted(below | f_3.support()):
        assert p.valuation(f_3 + BiPoly.monomial(a, b)) is not INFINITY, (a, b)
    # the certificate reads the same valuation
    bumped = replace(chain, fs=(*chain.fs[:2], f_3 + BiPoly.monomial(36, 0)))
    certs = certify(bumped).certificates
    assert [c.pullback_zero for c in certs] == [True, True, False]
