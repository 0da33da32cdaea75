import random
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from curvelift import extract_characteristics, validate_branch
from curvelift.chardata import Branch, CharData, split_tails
from curvelift.errors import CurveLiftError, InvalidBranchError
from curvelift.algebra import UniPoly
from helpers import rand_branch, run_optimized


def F(a, b=1):
    return Fraction(a, b)


def test_extract_reference_chain():
    cd = extract_characteristics(12, {18, 20, 23})
    assert cd.lambdas == (F(3, 2), F(5, 3), F(23, 12))
    assert cd.ks == (2, 3, 2)
    assert cd.es == (1, 2, 6, 12)


def test_extract_single_exponent():
    cd = extract_characteristics(2, {3})
    assert cd.lambdas == (F(3, 2),) and cd.ks == (2,) and cd.es == (1, 2)


def test_extract_characteristic_689():
    cd = extract_characteristics(6, {8, 9})
    assert cd.lambdas == (F(4, 3), F(3, 2)) and cd.ks == (3, 2)


def test_extract_with_inner_lattice_terms():
    cd = extract_characteristics(6, {9, 15, 16, 20})
    assert cd.lambdas == (F(3, 2), F(8, 3)) and cd.ks == (2, 3)


def test_extract_errors():
    with pytest.raises(InvalidBranchError, match="the parametrization has no terms"):
        extract_characteristics(4, set())
    with pytest.raises(InvalidBranchError, match=r"gcd\(k, support\) = 2 > 1: "
                       "parametrization is not primitive"):
        extract_characteristics(4, {6, 10})
    with pytest.raises(InvalidBranchError):
        extract_characteristics(0, {3})
    with pytest.raises(InvalidBranchError):
        extract_characteristics(4, {3, -5})


def test_in_lattice_characteristic_jumps():
    # lambda_i lies in M_i = (1/e_i) Z but not in M_{i-1}, and k_i * lambda_i
    # does: in lowest terms, e_{i-1} * lambda_i has denominator k_i
    cd = extract_characteristics(12, {18, 20, 23})
    for lam, e_prev, ki in zip(cd.lambdas, cd.es, cd.ks):
        assert (lam * e_prev).denominator == ki


def test_validate_paper_level2_example():
    b = validate_branch(6, {9: 1, 10: 1})
    assert b.cd.lambdas == (F(3, 2), F(5, 3))
    cs, phis = split_tails(b.cd, b.terms)
    assert cs == (1, 1)
    assert all(phi.is_zero for phi in phis)


def test_validate_splits_tails():
    b = validate_branch(6, {9: 1, 15: 2, 16: 1, 20: 5})
    assert b.cd.lambdas == (F(3, 2), F(8, 3))
    cs, phis = split_tails(b.cd, b.terms)
    assert phis == (UniPoly({15: 2}), UniPoly({20: 5}))
    assert cs == (1, 1)


def test_validate_rejects_integer_exponent():
    with pytest.raises(InvalidBranchError, match="exponent 8 is divisible by k = 4; "
                       "integer-exponent monomials must be removed"):
        validate_branch(4, {6: 1, 8: 1})


def test_validate_checks_directly_built_input():
    # terms given as (e, c) pairs get the checks a mapping gets: a zero c_i
    # or a repeated exponent is rejected before the lift, as a ValueError
    for k, terms in ((2, ((3, 0),)), (6, ((9, 1), (10, 0))), (2, ((3, 1), (3, 2)))):
        with pytest.raises(ValueError):
            validate_branch(k, terms)


@pytest.mark.parametrize("k, terms, message", [
    (0, {3: 1}, "multiplicity k must be a positive int, got 0"),
    (-2, {3: 1}, "multiplicity k must be a positive int, got -2"),
    ("2", {3: 1}, "multiplicity k must be a positive int, got '2'"),
    (2, {0: 1, 3: 1}, "t-exponent must be a positive int, got 0"),
    (2, {-3: 1}, "t-exponent must be a positive int, got -3"),
    (3, {2.0: 1}, "t-exponent must be a positive int, got 2.0"),
    (2, {True: 1}, "t-exponent must be a positive int, got True"),
    (2, {3: 0}, "zero coefficient at exponent 3"),
    (2, {3: 0.5}, "exponent 3: coefficient must be int or Fraction, got float"),
    (2, {3: "1"}, "exponent 3: coefficient must be int or Fraction, got str"),
    (2, [(3, 1), (5, 1), (3, 2)], "duplicate exponent 3"),
    (2, [3, 5], "terms must be a mapping or (exponent, coefficient) pairs"),
    (4, {6: 1, 8: 1}, "exponent 8 is divisible by k = 4"),
    (2, {}, "the parametrization has no terms"),
    (4, {6: 1, 10: 1}, "gcd(k, support) = 2 > 1: parametrization is not primitive"),
], ids=["k=0", "k=-2", "k=str", "exp=0", "exp=-3", "exp=float", "exp=bool",
        "coeff=0", "coeff=float", "coeff=str", "duplicate-pair", "not-pairs",
        "k-divides-exp", "empty", "non-primitive"])
def test_validate_rejects_invalid_input_typed(k, terms, message):
    with pytest.raises(InvalidBranchError, match=re.escape(message)) as info:
        validate_branch(k, terms)
    assert isinstance(info.value, CurveLiftError)


@pytest.mark.parametrize("c", [True, False])
def test_validate_rejects_bool_coefficient(c):
    # a bool is an int subclass: True would read as 1 and False as a zero
    # coefficient; like a bool k or exponent, it is rejected by its type
    with pytest.raises(InvalidBranchError, match="got bool"):
        validate_branch(2, {3: c})


def test_product_of_ks_is_k_random():
    rng = random.Random(0xB1)
    for _ in range(200):
        b = rand_branch(rng)
        prod = 1
        for ki in b.cd.ks:
            assert ki >= 2
            prod *= ki
        assert prod == b.k == b.cd.es[-1]


def test_extraction_ignores_lattice_exponents_random():
    rng = random.Random(0xB2)
    for _ in range(200):
        b = rand_branch(rng, tail_prob=0.0)
        cd = b.cd
        support = {e for e, _ in b.terms}
        # adding any exponent already inside the running lattice changes nothing
        i = rng.randint(1, cd.s)
        stride = b.k // cd.es[i]
        extra = int(cd.lambdas[i - 1] * b.k) + stride * rng.randint(1, 5)
        if i < cd.s and extra >= cd.lambdas[i] * b.k:
            continue
        cd2 = extract_characteristics(b.k, support | {extra})
        assert cd2 == cd


def test_split_roundtrip():
    b = validate_branch(6, {9: 1, 15: 2, 16: 1, 20: 5})
    cs, phis = split_tails(b.cd, b.terms)
    total = UniPoly(b.terms)
    rebuilt = UniPoly.zero()
    for i, (c, phi) in enumerate(zip(cs, phis), start=1):
        rebuilt = rebuilt + UniPoly({int(b.cd.lambdas[i - 1] * b.k): c}) + phi
    assert rebuilt == total


def test_chardata_derives_the_index_chain():
    # e_i = lcm(e_{i-1}, denominator of lambda_i), k_i = e_i / e_{i-1}
    cd = CharData(k=12, lambdas=(F(3, 2), F(5, 3), F(23, 12)))
    assert cd == extract_characteristics(12, {18, 20, 23})
    assert cd.ks == (2, 3, 2) and cd.es == (1, 2, 6, 12)
    with pytest.raises(TypeError):
        CharData(k=2, lambdas=(F(3, 2),), ks=(2,), es=(1, 2))


@pytest.mark.parametrize("k, lambdas, message", [
    (2, (1.5,), "characteristic exponent must be a positive Fraction, got 1.5"),
    (2, (F(-1, 2),), "characteristic exponent must be a positive Fraction"),
    (2.0, (F(3, 2),), "multiplicity k must be a positive int, got 2.0"),
    (4, (F(3, 2), F(5, 2)), "inconsistent characteristic data: k=4"),
])
def test_chardata_rejects_malformed_input_typed(k, lambdas, message):
    # a float lambda, a negative one (it would give the "semigroup"
    # (2; -1)) and a float k raise the typed error, not AttributeError; so
    # does a chain whose second lambda adds no denominator factor
    with pytest.raises(InvalidBranchError, match=re.escape(message)):
        CharData(k=k, lambdas=lambdas)


def test_replaced_branch_is_checked_and_rederived(branch12):
    # a Branch built by replace() or by hand is checked as validate_branch
    # checks one, and its characteristic data are derived afresh: 19 drops
    # the running gcd from 6 to 1, so the chain ends at the second level
    b = replace(branch12, terms=branch12.terms + ((19, 1),))
    assert b.cd.s == 2 and b.cd.lambdas == (F(3, 2), F(19, 12))
    assert b.terms == ((18, 1), (19, 1), (20, 1), (23, 1))
    assert b == validate_branch(12, dict(b.terms)) == Branch(12, b.terms)
    for extra, message in (((24, 1), "exponent 24 is divisible by k = 12"),
                           ((19, 0), "zero coefficient at exponent 19"),
                           ((18, 2), "duplicate exponent 18")):
        with pytest.raises(InvalidBranchError, match=re.escape(message)):
            replace(branch12, terms=branch12.terms + (extra,))
    with pytest.raises(TypeError):
        Branch(k=12, terms=branch12.terms, cd=branch12.cd)


# hand-built CharData(k, lambdas) that miss the index chain: lambdas not
# increasing, a lambda that adds no denominator factor (k_i = 1), e_s != k
INCONSISTENT_CHARDATA = (
    (6, (F(5, 3), F(3, 2))), (6, (F(3, 2), F(3, 2))),
    (6, (F(4, 3), F(3, 2), F(5, 2))),
    (4, (F(3, 2),)), (4, (F(5, 8),)), (2, ()))


def test_chardata_rejects_inconsistent_chains_under_optimize():
    # the check is no assert, so every case also raises under python -O
    code = ("from fractions import Fraction\n"
            "from curvelift.chardata import CharData\n"
            "from curvelift.errors import InvalidBranchError\n"
            f"for k, lambdas in {INCONSISTENT_CHARDATA!r}:\n"
            "    try:\n"
            "        CharData(k=k, lambdas=lambdas)\n"
            "    except InvalidBranchError as exc:\n"
            "        print(str(exc).split(':')[0])\n")
    expected = "inconsistent characteristic data\n" * len(INCONSISTENT_CHARDATA)
    assert run_optimized(code) == expected


def test_slice_query_rejects_bad_weights_under_optimize():
    # a zero weight would make the slice enumeration divide by zero
    code = ("from curvelift.polygon import SliceQuery\n"
            "from curvelift.errors import InvariantError\n"
            "try:\n"
            "    SliceQuery(n=5, sg=(2, 0), ls=(2, 3), bound=9)\n"
            "except InvariantError:\n"
            "    print('rejected')\n")
    assert run_optimized(code) == "rejected\n"


def test_validated_branches_meet_tail_conditions():
    # the tail conditions are not re-checked after the split: they must hold
    # by construction on every branch validate_branch accepts
    rng = random.Random(0xB3)
    accepted = 0
    for _ in range(5000):
        k = rng.randint(2, 12)
        exps = rng.sample(range(1, 4 * k), rng.randint(1, 5))
        terms = {m: rng.choice((-2, -1, 1, F(3, 2))) for m in exps}
        try:
            b = validate_branch(k, terms)
        except InvalidBranchError as exc:
            if "is divisible by k" in str(exc):
                assert any(m % k == 0 for m in exps)
            else:
                assert "not primitive" in str(exc) and gcd(k, *exps) > 1
            continue
        accepted += 1
        # characteristic exponents m_i and e_i, read off the running gcd
        g, chars, ks, es = k, [], [], [1]
        for m in sorted(exps):
            if gcd(g, m) < g:
                chars.append(m)
                ks.append(g // gcd(g, m))
                es.append(k // gcd(g, m))
                g = gcd(g, m)
        assert [int(lam * k) for lam in b.cd.lambdas] == chars
        assert b.cd.ks == tuple(ks) and b.cd.es == tuple(es)
        rebuilt = {}
        for i, (c, phi) in enumerate(zip(*split_tails(b.cd, b.terms)), start=1):
            assert c != 0 and c == terms[chars[i - 1]]
            rebuilt[chars[i - 1]] = c
            for m, v in phi.terms():
                assert (m * es[i]) % k == 0          # m/k in M_i = (1/e_i) Z
                assert m > chars[i - 1]              # ord(phi_i) > k*lambda_i
                if i < len(chars):
                    assert m < chars[i]              # deg(phi_i) < k*lambda_{i+1}
                rebuilt[m] = v
        assert rebuilt == terms                      # the split is a partition
    assert accepted > 1000
