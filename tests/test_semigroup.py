import random

import pytest

from curvelift import (conductor_bound, extract_characteristics, generators,
                       group_member, identity_suite, normal_form, recombine,
                       semigroup_member)
from curvelift.errors import NotInGroupError
from helpers import brute_capped_forms, brute_semigroup_1d, rand_branch


def cd_of(k, support):
    return extract_characteristics(k, support)


def test_generators_reference_sets():
    cd = cd_of(12, {18, 20, 23})
    assert generators(cd, 2).generators_list() == [6, 9, 19]
    assert generators(cd, 3).generators_list() == [12, 18, 38, 117]
    cd2 = cd_of(6, {9, 16})
    assert generators(cd2, 1).generators_list() == [2, 3]
    assert generators(cd2, 2).generators_list() == [6, 9, 25]
    cd3 = cd_of(6, {8, 9})
    assert generators(cd3, 2).generators_list() == [6, 8, 25]


def test_normal_form_reference_values():
    sd = generators(cd_of(6, {9, 16}), 2)          # (6; 9, 25), caps (2, 3)
    nf = normal_form(75, sd)
    assert nf.alpha == 11 and nf.betas == (1, 0)
    assert brute_capped_forms(75, sd) == [(11, (1, 0))]

    nf = normal_form(sd.gamma[0], sd)              # a = gamma_1
    assert nf.alpha == 0 and nf.betas == (1, 0)


def test_normal_form_conductor_window_689():
    sd = generators(cd_of(6, {8, 9}), 2)           # (6; 8, 25), caps (3, 2)
    c = conductor_bound(sd)
    assert c == 2 * 8 + 1 * 25 == 41
    nf = normal_form(41, sd)
    assert nf.alpha == 0 and nf.betas == (2, 1)
    for a in range(41, 242):
        assert normal_form(a, sd).alpha >= 0
        assert semigroup_member(a, sd)


def test_group_and_semigroup_membership():
    sd = generators(cd_of(2, {3}), 1)              # (2; 3)
    assert group_member(1, sd) and not semigroup_member(1, sd)
    sd2 = generators(cd_of(12, {18, 20, 23}), 2)   # (6; 9, 19)
    assert semigroup_member(25, sd2)
    with pytest.raises(NotInGroupError):
        normal_form(1, generators(cd_of(6, {9, 16}), 1), upto=0)


def test_semigroup_member_matches_brute_force_689():
    sd = generators(cd_of(6, {8, 9}), 2)
    reach = brute_semigroup_1d([6, 8, 25], 300)
    for a in range(0, 301):
        assert semigroup_member(a, sd) == reach[a]


def test_identity_suite_reference():
    cd = cd_of(12, {18, 20, 23})
    rep = identity_suite(generators(cd, 3))
    assert rep.ok
    # (C) at the top index: 2 * 117 = 234 is a combination of (12, 18, 38)
    reach = brute_semigroup_1d([12, 18, 38], 234)
    assert reach[234]
    sd2 = generators(cd_of(6, {9, 16}), 2)
    rep2 = identity_suite(sd2)
    assert rep2.ok
    # (D) with i = 1: e_0*gamma_2 - e_1*gamma_1 = 25 - 18 = 7 > 0
    assert sd2.es[0] * sd2.gamma[1] - sd2.es[1] * sd2.gamma[0] == 7


def test_identity_suite_alt_generator_at_base():
    # empty-sum case: gamma_1 = free * lambda_1 exactly
    for k, sup in ((12, {18, 20, 23}), (6, {8, 9}), (30, {36, 45, 50})):
        cd = cd_of(k, sup)
        sd = generators(cd, cd.s)
        assert sd.gamma[0] == int(cd.lambdas[0] * sd.free)
        assert identity_suite(sd).ok


def test_normal_form_roundtrip_random():
    rng = random.Random(0xC1)
    for _ in range(250):
        b = rand_branch(rng)
        sd = generators(b.cd, rng.randint(1, b.cd.s))
        a = sd.free * rng.randint(-4, 8)
        for g, w in zip(sd.gamma, range(sd.level)):
            a += rng.randint(-3, 5) * g
        nf = normal_form(a, sd)
        assert recombine(nf, sd) == a
        assert all(0 <= bb < kj for bb, kj in zip(nf.betas, sd.ks))
        assert brute_capped_forms(a, sd) == [(nf.alpha, nf.betas)]


def test_conductor_window_random():
    rng = random.Random(0xC2)
    for _ in range(200):
        b = rand_branch(rng, max_levels=2, max_k=9)
        sd = generators(b.cd, b.cd.s)
        c = conductor_bound(sd)
        top = c + sd.free * max(sd.gamma)
        for a in range(c, top + 1):
            if group_member(a, sd):
                assert semigroup_member(a, sd)


def test_membership_rejects_tuples():
    sd = generators(cd_of(6, {9, 16}), 2)
    for fn in (normal_form, semigroup_member, group_member):
        with pytest.raises(TypeError):
            fn((75,), sd)
