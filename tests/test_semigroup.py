import random
from math import gcd

import pytest

from curvelift import (SemigroupDesc, extract_characteristics, generators,
                       normal_form, semigroup_member)
from curvelift.errors import InvariantError
from helpers import brute_capped_forms, brute_semigroup_1d, rand_branch, run_optimized


def cd_of(k, support):
    return extract_characteristics(k, support)


def check_generator_identities(cd):
    """The four identities of the top-level generators (e_s; gamma_1, ...)."""
    s = cd.s
    sd = generators(cd, s)
    below = 0                      # sum_{j<i} (k_j - 1) gamma_j
    for i, (g, k, lam) in enumerate(zip(sd.gamma, sd.ks, cd.lambdas), start=1):
        # alt_generator: gamma_i = e_s*lambda_i + sum_{j<i} (k_j - 1) gamma_j
        assert g == sd.free * lam + below
        below += (k - 1) * g
        # growth: k_i gamma_i > sum_{j<=i} (k_j - 1) gamma_j
        assert k * g > below
        # power_membership: k_i gamma_i is in the semigroup of e_s, gamma_{<i}
        assert brute_semigroup_1d([sd.free, *sd.gamma[:i - 1]], k * g)[k * g]
    # cross_positivity: e_{i-1} gamma_s - e_{s-1} gamma_i > 0 for i < s
    for i in range(1, s):
        assert cd.es[i - 1] * sd.gamma[s - 1] - cd.es[s - 1] * sd.gamma[i - 1] > 0


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
    assert nf[0] == 11 and nf[1:] == (1, 0)
    assert brute_capped_forms(75, sd) == [(11, (1, 0))]

    nf = normal_form(sd.gamma[0], sd)              # a = gamma_1
    assert nf[0] == 0 and nf[1:] == (1, 0)


def test_normal_form_conductor_window_689():
    sd = generators(cd_of(6, {8, 9}), 2)           # (6; 8, 25), caps (3, 2)
    c = sum((k - 1) * g for k, g in zip(sd.ks, sd.gamma))
    assert c == 2 * 8 + 1 * 25 == 41
    nf = normal_form(41, sd)
    assert nf[0] == 0 and nf[1:] == (2, 1)
    for a in range(41, 242):
        assert normal_form(a, sd)[0] >= 0
        assert semigroup_member(a, sd)


def test_group_and_semigroup_membership():
    sd = generators(cd_of(2, {3}), 1)              # (2; 3)
    assert 1 % gcd(sd.free, *sd.gamma) == 0 and not semigroup_member(1, sd)
    sd2 = generators(cd_of(12, {18, 20, 23}), 2)   # (6; 9, 19)
    assert semigroup_member(25, sd2)
    # a malformed desc gives no normal form for any input: corrupt data.
    # (2; 4) does not span Z; in (6; 10, 25) gamma_1 = 10 is not in 3Z;
    # in (4; 3) with caps (2,) the caps multiply to 2, not 4
    for desc in (SemigroupDesc(free=2, gamma=(4,), ks=(2,)),
                 SemigroupDesc(free=6, gamma=(10, 25), ks=(2, 3)),
                 SemigroupDesc(free=4, gamma=(3,), ks=(2,))):
        for a in (*range(-30, 31), 75):
            for fn in (normal_form, semigroup_member):
                with pytest.raises(InvariantError, match="no normal form"):
                    fn(a, desc)
    # raised, not asserted: python -O keeps the check
    code = ("from curvelift import SemigroupDesc, normal_form\n"
            "from curvelift.errors import InvariantError\n"
            "try:\n"
            "    normal_form(75, SemigroupDesc(free=4, gamma=(3,), ks=(2,)))\n"
            "except InvariantError:\n"
            "    print('raised')\n")
    assert run_optimized(code) == "raised\n"


def test_semigroup_member_matches_brute_force_689():
    sd = generators(cd_of(6, {8, 9}), 2)
    reach = brute_semigroup_1d([6, 8, 25], 300)
    for a in range(0, 301):
        assert semigroup_member(a, sd) == reach[a]


def test_identity_suite_reference():
    cd = cd_of(12, {18, 20, 23})
    check_generator_identities(cd)
    # (C) at the top index: 2 * 117 = 234 is a combination of (12, 18, 38)
    reach = brute_semigroup_1d([12, 18, 38], 234)
    assert reach[234]
    cd2 = cd_of(6, {9, 16})
    check_generator_identities(cd2)
    # (D) with i = 1: e_0*gamma_2 - e_1*gamma_1 = 25 - 18 = 7 > 0
    sd2 = generators(cd2, 2)
    assert cd2.es[0] * sd2.gamma[1] - cd2.es[1] * sd2.gamma[0] == 7


def test_identity_suite_alt_generator_at_base():
    # empty-sum case: gamma_1 = free * lambda_1 exactly
    for k, sup in ((12, {18, 20, 23}), (6, {8, 9}), (30, {36, 45, 50})):
        cd = cd_of(k, sup)
        sd = generators(cd, cd.s)
        assert sd.gamma[0] == int(cd.lambdas[0] * sd.free)
        check_generator_identities(cd)


def test_normal_form_roundtrip_random():
    rng = random.Random(0xC1)
    for _ in range(250):
        b = rand_branch(rng)
        sd = generators(b.cd, rng.randint(1, b.cd.s))
        a = sd.free * rng.randint(-4, 8)
        for g in sd.gamma:
            a += rng.randint(-3, 5) * g
        nf = normal_form(a, sd)
        assert sd.free * nf[0] + sum(b * g for b, g in zip(nf[1:], sd.gamma)) == a
        assert all(0 <= bb < kj for bb, kj in zip(nf[1:], sd.ks))
        assert brute_capped_forms(a, sd) == [(nf[0], nf[1:])]


def test_conductor_window_random():
    rng = random.Random(0xC2)
    for _ in range(200):
        b = rand_branch(rng, max_levels=2, max_k=9)
        sd = generators(b.cd, b.cd.s)
        c = sum((k - 1) * g for k, g in zip(sd.ks, sd.gamma))
        top = c + sd.free * max(sd.gamma)
        for a in range(c, top + 1):
            if a % gcd(sd.free, *sd.gamma) == 0:
                assert semigroup_member(a, sd)


def test_membership_rejects_tuples():
    sd = generators(cd_of(6, {9, 16}), 2)
    for fn in (normal_form, semigroup_member):
        with pytest.raises(TypeError):
            fn((75,), sd)
