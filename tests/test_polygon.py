import random
from fractions import Fraction

import pytest

from curvelift import BiPoly, polygon_contains, polygon_desc, truncation
from curvelift.errors import InvariantError
from curvelift.polygon import SliceQuery, lattice_slice
from helpers import naive_slice, tail_mu, tail_polygon


def pd_of(branch, i):
    return polygon_desc(truncation(branch, i))


def test_mu_reference_values(branch12, branch6_tails):
    assert pd_of(branch12, 2).mu == Fraction(5, 3)            # no tail: mu = lambda
    assert pd_of(branch12, 3).mu == Fraction(23, 12)
    assert pd_of(branch6_tails, 1).mu == Fraction(5, 2)       # deg(2 t^5) / e_1
    assert pd_of(branch6_tails, 2).mu == Fraction(10, 3)


def test_polygon_matches_tail_split(corpus_chains):
    # N_i read off the truncation equals N_i built from lambda_1 and the
    # degree of the level-i tail, on every corpus level
    for branch, _, _ in corpus_chains.values():
        for i in range(1, branch.cd.s + 1):
            assert pd_of(branch, i) == tail_polygon(branch, i)


def test_polygon_reference_level2(branch12):
    pd = pd_of(branch12, 2)
    assert pd.lower == (2, 3, 18)
    assert pd.upper == (6, 10, 60)
    assert pd.vertices == ((0, 6), (9, 0), (10, 0))
    assert polygon_contains((9, 0), pd)
    assert not polygon_contains((11, 0), pd)
    assert polygon_contains((0, 6), pd)
    assert not polygon_contains((0, 7), pd)
    assert not polygon_contains((0, 5), pd)
    assert not polygon_contains((-1, 0), pd)


def test_polygon_apex_only_on_vertical_axis(branch12):
    for i in (1, 2, 3):
        pd = pd_of(branch12, i)
        e_i = branch12.cd.es[i]
        hits = [b for b in range(0, 3 * e_i + 1) if polygon_contains((0, b), pd)]
        assert hits == [e_i]


def test_polygon_vertices_satisfy_inequalities(branch6_tails):
    for i in (1, 2):
        pd = pd_of(branch6_tails, i)
        for v in pd.vertices:
            assert polygon_contains(v, pd)


def test_polygon_matches_pullback_interval(branch12, branch6_tails):
    # membership iff the monomial pullback support fits the stated interval
    for branch in (branch12, branch6_tails):
        for i in range(1, branch.cd.s + 1):
            p = truncation(branch, i)
            pd = polygon_desc(p)
            e_i = branch.cd.es[i]
            lo = e_i * int(e_i * branch.cd.lambdas[0])
            hi = e_i * int(e_i * tail_mu(branch, i))
            # x**a pulls back to t**(e_i*a): the pullback of x**a * y**b
            # is that of y**b, shifted
            ys = [p.pullback(BiPoly.y(b)) for b in range(0, 51)]
            for a in range(0, 51):
                for b, pb in enumerate(ys):
                    inside = (pb.order() + e_i * a >= lo
                              and pb.degree() + e_i * a <= hi)
                    assert polygon_contains((a, b), pd) == inside


def test_lattice_slice_reference_first_iteration():
    q = SliceQuery(n=57, sg=(6, 9, 19), ls=(6, 10, 20), bound=60)
    assert lattice_slice(q) == [(0, 0, 3), (5, 3, 0), (8, 1, 0)]


def test_lattice_slice_trivial_cases():
    q = SliceQuery(n=0, sg=(6, 9, 19), ls=(6, 10, 20), bound=60)
    assert lattice_slice(q) == [(0, 0, 0)]
    q = SliceQuery(n=1, sg=(6, 9, 19), ls=(6, 10, 20), bound=60)
    assert lattice_slice(q) == []
    assert lattice_slice(SliceQuery(n=0, sg=(), ls=(), bound=4)) == [()]
    assert lattice_slice(SliceQuery(n=3, sg=(), ls=(), bound=4)) == []
    with pytest.raises(InvariantError, match="0 < sg <= ls"):
        SliceQuery(n=5, sg=(3,), ls=(2,), bound=9)


def test_lattice_slice_lex_order_and_dedup():
    q = SliceQuery(n=36, sg=(6, 9, 18), ls=(6, 9, 18), bound=1000)
    out = lattice_slice(q)
    assert out == sorted(out)
    assert len(out) == len(set(out))
    assert out == naive_slice(q)


def test_lattice_slice_matches_naive_random():
    rng = random.Random(0xE0)
    for _ in range(250):
        m = rng.randint(1, 4)
        sg = tuple(rng.randint(1, 12) for _ in range(m))
        ls = tuple(w + rng.randint(0, 6) for w in sg)
        n = rng.randint(0, 60)
        bound = rng.randint(0, 80)
        q = SliceQuery(n=n, sg=sg, ls=ls, bound=bound)
        assert lattice_slice(q) == naive_slice(q)


def test_slice_tuples_hit_exact_valuation(branch12):
    # every returned tuple's basis product has pullback order exactly n
    from curvelift import implicitize_all
    chain = implicitize_all(branch12, verify=False)
    i = 2
    p = truncation(branch12, i)
    q = SliceQuery(n=57, sg=(6, 9, 19),
                   ls=(6, p.yt.degree(), p.pullback(chain.fs[0]).degree()),
                   bound=6 * p.yt.degree())
    for alpha, b0, b1 in lattice_slice(q):
        prod = BiPoly.monomial(alpha, b0) * chain.fs[0] ** b1
        assert p.valuation(prod) == 57
