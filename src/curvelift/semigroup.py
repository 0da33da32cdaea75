"""Value semigroup of a branch truncation: a numerical semigroup in N_0.

At level i the value semigroup is generated by e_i together with

    gamma_1 = e_i * lambda_1,
    gamma_{j+1} = k_j * gamma_j - e_i * lambda_j + e_i * lambda_{j+1}.

The recurrence keeps the same scale e_i on both exponent terms; this is
the only reading that reproduces the reference generator sets
{6,9,19}, {12,18,38,117}, {6,9,25} and {6,8,25} used in the tests.

Core facts used here:

* the group spanned by e_i and gamma_1..gamma_j is d_j Z with
  d_j = gcd(e_i, gamma_1, ..., gamma_j) = e_i / e_j; at j = i it is Z;
* so every integer a has a unique representation
  a = e_i * alpha + sum beta_j gamma_j with 0 <= beta_j < k_j (the normal
  form): beta_j is the unique residue with a - beta_j * gamma_j divisible
  by d_{j-1};
* semigroup membership  <=>  the normal form has alpha >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .chardata import CharData
from .errors import InvariantError


def _check_int(a) -> int:
    if type(a) is not int:
        raise TypeError(f"expected an int, got {a!r}")
    return a


@dataclass(frozen=True)
class SemigroupDesc:
    """Generators (free; gamma_1, ..., gamma_level) at one truncation level."""

    level: int
    free: int                 # e_level
    gamma: tuple[int, ...]
    ks: tuple[int, ...]       # caps k_1, ..., k_level

    def generators_list(self) -> list[int]:
        """[free, gamma_1, ..., gamma_level]."""
        return [self.free, *self.gamma]


def generators(cd: CharData, i: int) -> SemigroupDesc:
    """Semigroup generators for the level-i truncation of a plane branch."""
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    e_i = cd.es[i]
    gamma: list[int] = []
    prev_lam = 0
    for j, lam in enumerate(cd.lambdas[:i]):
        lam_e = lam * e_i
        if lam_e.denominator != 1:
            raise InvariantError(
                f"{e_i} * lambda_{j + 1} is not an integer")
        lam_e = int(lam_e)
        gamma.append(lam_e if j == 0 else cd.ks[j - 1] * gamma[-1] - prev_lam + lam_e)
        prev_lam = lam_e
    return SemigroupDesc(level=i, free=e_i, gamma=tuple(gamma), ks=cd.ks[:i])


@dataclass(frozen=True)
class NormalForm:
    alpha: int
    betas: tuple[int, ...]


def normal_form(a: int, sd: SemigroupDesc) -> NormalForm:
    """The unique representation a = free * alpha + sum beta_j * gamma_j
    with 0 <= beta_j <= k_j - 1.

    Found constructively: peel the top generator by locating the unique
    residue beta_j with a - beta_j * gamma_j in the previous group, then
    recurse; the base case divides by the free part. Generators that do
    not span Z raise InvariantError.
    """
    v = _check_int(a)
    betas = []
    for j in range(sd.level, 0, -1):
        d = gcd(sd.free, *sd.gamma[:j - 1])
        g = sd.gamma[j - 1]
        b = next((b for b in range(sd.ks[j - 1]) if (v - b * g) % d == 0), None)
        if b is None:
            raise InvariantError(f"{a!r} has no normal form over {sd.generators_list()}")
        betas.append(b)
        v -= b * g
    if v % sd.free:
        raise InvariantError(f"{a!r} has no normal form over {sd.generators_list()}")
    return NormalForm(alpha=v // sd.free, betas=tuple(reversed(betas)))


def semigroup_member(a: int, sd: SemigroupDesc) -> bool:
    """Membership in the semigroup (non-negative combinations only)."""
    return normal_form(a, sd).alpha >= 0
