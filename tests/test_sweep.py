"""Bounded-exhaustive sweep: every characteristic shape with k <= 16 and
characteristic exponents in (k, 3k], 1008 branches and 2180 levels, under
two coefficient patterns. Each chain must certify and match the norm
oracle at every level."""

from fractions import Fraction
from math import gcd

import pytest

from curvelift import implicitize_all, validate_branch


def shapes(k: int, top: int):
    """Every increasing m_1 < ... < m_s in (k, top] at which the running gcd
    of k and the m's strictly drops, down to 1."""
    out = []

    def extend(g, last, chars):
        if g == 1:
            out.append(chars)
            return
        for m in range(last + 1, top + 1):
            if gcd(g, m) < g:
                extend(gcd(g, m), m, (*chars, m))

    extend(k, k, ())
    return out


SHAPES = [(k, chars) for k in range(2, 17) for chars in shapes(k, 3 * k)]


def test_sweep_scope():
    assert len(SHAPES) == 1008
    assert sum(len(chars) for _, chars in SHAPES) == 2180


def unit(chars):
    return [1] * len(chars)


def signed_two_thirds(chars):
    # alternating signs, 2/3 on the last characteristic term
    cs = [(-1) ** j for j in range(len(chars))]
    cs[-1] *= Fraction(2, 3)
    return cs


@pytest.mark.parametrize("pattern", [unit, signed_two_thirds])
def test_sweep_certifies_and_matches_oracle(pattern):
    for k, chars in SHAPES:
        branch = validate_branch(k, dict(zip(chars, pattern(chars))))
        chain = implicitize_all(branch, oracle_bound=16)
        assert chain.ok, (k, chars)
        assert all(c.oracle == "match" for c in chain.certificates), (k, chars)
