"""Bounded-exhaustive sweep: every characteristic shape with k <= 16 and
characteristic exponents in (k, 3k], 1008 branches and 2180 levels, under
three coefficient patterns, the last with one tail per level. Each chain
must certify and match the norm oracle at every level, and a tailed
chain's document must rebuild and re-certify."""

from fractions import Fraction
from math import gcd

import pytest

from curvelift import certify, implicitize_all, validate_branch
from curvelift.cli import CurveFile, chain_to_doc, doc_rebuild
from curvelift.implicitize import chain_from_polynomials


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
    assert sum(len(tailed(k, chars)) - len(chars) for k, chars in SHAPES) == 1681


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


def tailed(k, chars):
    """Alternating unit characteristic terms and, after each m_j, one 2/3
    tail at the first multiple of gcd(k, m_1..m_j) above m_j that k does
    not divide, where it lies below m_{j+1} (at the top level, anywhere)."""
    terms = {m: (-1) ** j for j, m in enumerate(chars)}
    g = k
    for j, m in enumerate(chars):
        g = gcd(g, m)
        tail = m + g
        while tail % k == 0:
            tail += g
        if j + 1 == len(chars) or tail < chars[j + 1]:
            terms[tail] = Fraction(2, 3)
    return terms


def test_sweep_with_tails_certifies_and_rebuilds():
    for k, chars in SHAPES:
        cf = CurveFile(k=k, terms=sorted(tailed(k, chars).items()))
        chain = implicitize_all(validate_branch(k, dict(cf.terms)), oracle_bound=16)
        assert chain.ok, (k, chars)
        assert all(c.oracle == "match" for c in chain.certificates), (k, chars)
        branch, fs = doc_rebuild(chain_to_doc(cf, chain))
        rebuilt = certify(chain_from_polynomials(branch, fs), oracle_bound=16)
        assert rebuilt.ok and rebuilt.fs == chain.fs, (k, chars)
