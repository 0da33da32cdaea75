import random
from fractions import Fraction

import pytest

from curvelift import BiPoly, basis_reconstruct, is_weierstrass, truncation
from helpers import naive_basis_reconstruct, rand_branch, rand_coeff

F1 = BiPoly({(0, 2): 1, (3, 0): -1})                       # y^2 - x^3
DELTA2 = BiPoly({(5, 3): -2, (8, 1): -6, (10, 0): 1})      # with unit coefficients


def test_is_weierstrass():
    assert is_weierstrass(F1) == (True, 2)
    assert is_weierstrass(BiPoly({(0, 2): 1, (0, 1): 1}))[0] is False   # a_1(0) != 0
    assert is_weierstrass(BiPoly({(0, 2): 2, (3, 0): 1}))[0] is False   # not monic
    assert is_weierstrass(BiPoly({(1, 2): 1, (0, 2): 1}))[0] is False   # x at top power
    assert is_weierstrass(BiPoly.zero())[0] is False


def chain12():
    from curvelift import implicitize_all, validate_branch
    b = validate_branch(12, {18: 1, 20: 1, 23: 1})
    return implicitize_all(b, verify=False)


def test_basis_reference_example():
    # delta_2 of the reference branch in the capped basis
    # x**alpha * y**beta_0 * f_1**beta_1 with beta_0 < 2, beta_1 < 3
    terms = [(-2, (5, 1, 1)), (-8, (8, 1, 0)), (1, (10, 0, 0))]
    assert basis_reconstruct(terms, chain12().fs[:1]) == DELTA2


def test_basis_reconstruct_matches_per_term_reference():
    fs = chain12().fs
    assert basis_reconstruct([], ()) == BiPoly.zero()
    assert basis_reconstruct([], fs[:2]) == BiPoly.zero()
    assert basis_reconstruct([(3, (2, 5))], ()) == BiPoly.monomial(2, 5, 3)
    lone = [(Fraction(-2, 3), (1, 0, 0, 9))]     # a lone high power of f_2
    assert basis_reconstruct(lone, fs[:2]) == naive_basis_reconstruct(lone, fs[:2])
    with pytest.raises(ValueError):                # one exponent short
        basis_reconstruct([(1, (0, 1, 0))], fs[:2])
    rng = random.Random(0xF5)
    for _ in range(150):
        i = rng.randint(1, 3)
        # betas up to 5 cross the caps beta_0 < 2, beta_1 < 3, beta_2 < 2, and
        # a few terms leave gaps in the last exponent
        terms = [(rand_coeff(rng), (rng.randint(0, 4),
                                    *(rng.randint(0, 5) for _ in range(i))))
                 for _ in range(rng.randint(0, 6))]
        assert basis_reconstruct(terms, fs[:i - 1]) == \
            naive_basis_reconstruct(terms, fs[:i - 1])


def test_level1_valuation_collision_forces_multiple():
    # equal level-1 valuations of a*y^alpha and b*y^beta force e_1 | alpha - beta
    rng = random.Random(0xF4)
    for _ in range(200):
        branch = rand_branch(rng, max_levels=2, max_k=9)
        p1 = truncation(branch, 1)
        e1 = branch.cd.es[1]
        a_pow = rng.randint(0, 6)
        b_pow = rng.randint(0, 6)
        fa = BiPoly({(rng.randint(0, 5), a_pow): 1})
        fb = BiPoly({(rng.randint(0, 5), b_pow): 1})
        if p1.valuation(fa) == p1.valuation(fb):
            assert (a_pow - b_pow) % e1 == 0
