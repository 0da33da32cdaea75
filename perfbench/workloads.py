"""Seeded workload generator: shape specs -> .curve files.

A shape fixes what drives the cost of a branch: the index chain
``k_1, ..., k_s`` (so ``k`` and the level degrees ``e_i``), the level of
each tail term and the pool of coefficient magnitudes (their height). Its
exponents follow from these. The seed picks every coefficient from the
pool, and its sign. The program's own ``validate_branch`` checks every
generated file before any timing starts.

The generator depends only on the standard library, so the same seed gives
the same files whatever the program under test does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    ks: tuple[int, ...]            # index chain k_1, ..., k_s
    tails: tuple[int, ...] = ()    # the level of each tail term
    coeffs: tuple = (1,)           # coefficient magnitudes; a seed picks signs


@dataclass(frozen=True)
class Workload:
    """One named input set; BENCHMARK.json says why it exists."""

    name: str
    shapes: tuple[Shape, ...]
    oracle_at_top: bool       # certify with oracle_bound = e_s instead of 12


# non-unit rationals of one height, so that no draw is cheaper than another:
# a seed must not make a workload easier or harder
RATIONAL = (Fraction(2, 3), Fraction(3, 2))


def _small_batch_shapes() -> tuple[Shape, ...]:
    chains = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 2), (2, 5),
              (4, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
    shapes = []
    for ks in chains:
        s = len(ks)
        for tails in ((), (s,), (s, s)):
            shapes.append(Shape(ks=ks, tails=tails, coeffs=RATIONAL))
    return tuple(shapes) * 6


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="small-batch",
            shapes=_small_batch_shapes(),
            oracle_at_top=False),
        Workload(
            name="deep-integer",
            shapes=(Shape(ks=(2, 2, 2, 2, 2)), Shape(ks=(2, 2, 2, 4)))
            + (Shape(ks=(2, 2, 2, 5)),) * 5
            + (Shape(ks=(2, 2, 2, 6)), Shape(ks=(2, 2, 3, 5))),
            oracle_at_top=False),
        Workload(
            name="mid-rational",
            shapes=(Shape(ks=(2, 3, 3), tails=(3,), coeffs=RATIONAL),
                    Shape(ks=(3, 2, 3), tails=(3,), coeffs=RATIONAL),
                    Shape(ks=(2, 5, 2), tails=(3,), coeffs=RATIONAL),
                    Shape(ks=(2, 3, 4), tails=(3,), coeffs=RATIONAL)) * 2
            + (Shape(ks=(2, 2, 5), tails=(3, 3), coeffs=RATIONAL),
               Shape(ks=(2, 2, 2, 3), coeffs=RATIONAL)),
            oracle_at_top=True),
    )
}


def _coeff(rng: random.Random, pool: tuple):
    return rng.choice((1, -1)) * rng.choice(pool)


def _first(above: int, ok) -> int:
    """The first integer above ``above`` that passes ``ok``."""
    m = above + 1
    while not ok(m):
        m += 1
    return m


def make_terms(rng: random.Random, shape: Shape) -> tuple[int, dict[int, object]]:
    """One branch of the given shape: (k, {t-exponent: coefficient}).

    Level by level: the characteristic exponent m_i = g_i * j with
    gcd(j, k_i) = 1, so the running gcd of k and the exponents drops from
    g_{i-1} to g_i = k / e_i; then the level's tail terms, multiples of g_i
    above m_i. Each exponent is the lowest admissible one. Letting the seed
    choose between the lowest two moved small-batch's total term-pair count
    by 10% from seed to seed, against 0.3% with pinned exponents.
    """
    k = prod(shape.ks)
    terms = {}
    top = k                                    # lambda_1 > 1
    g = k
    for level, ki in enumerate(shape.ks, start=1):
        g_next = g // ki
        top = _first(top, lambda m: m % g_next == 0
                     and gcd(m // g_next, ki) == 1)
        terms[top] = _coeff(rng, shape.coeffs)
        for _ in range(shape.tails.count(level)):
            top = _first(top, lambda m: m % g_next == 0 and m % k)
            terms[top] = _coeff(rng, shape.coeffs)
        g = g_next
    return k, terms


def curve_text(name: str, k: int, terms: dict[int, object]) -> str:
    lines = [f"name: {name}", f"k: {k}"]
    lines += [f"term: {m} {c}" for m, c in terms.items()]
    return "\n".join(lines) + "\n"


# the warm-up curve: small, fixed, and through every step of the path
# (two levels, a tail, rational coefficients, the oracle at both levels)
WARMUP = curve_text("warmup", 6, {9: Fraction(3, 2), 15: -2, 16: 1})


def generate(workload: Workload, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's curve files for ``seed``; return their paths in
    run order."""
    rng = random.Random(f"{workload.name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.curve"):
        old.unlink()
    paths = []
    for idx, shape in enumerate(workload.shapes):
        k, terms = make_terms(rng, shape)
        name = f"{workload.name}-{idx:03d}"
        path = out_dir / f"{name}.curve"
        path.write_text(curve_text(name, k, terms))
        paths.append(path)
    return paths
