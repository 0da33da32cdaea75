"""Value semigroup of a branch truncation: a numerical semigroup in N_0.

At level i the value semigroup is generated by e_i together with

    gamma_1 = e_i * lambda_1,
    gamma_{j+1} = k_j * gamma_j - e_i * lambda_j + e_i * lambda_{j+1}.

The recurrence keeps the same scale e_i on both exponent terms; this is
the only reading that reproduces the reference generator sets
{6,9,19}, {12,18,38,117}, {6,9,25} and {6,8,25} used in the tests.

Core facts used here:

* the group spanned by e_i and gamma_1..gamma_j is d_j Z with
  d_j = gcd(e_i, gamma_1, ..., gamma_j), so membership is a divisibility
  test;
* every group element has a unique representation
  a = e_i * alpha + sum beta_j gamma_j with 0 <= beta_j < k_j (the normal
  form): beta_j is the unique residue with a - beta_j * gamma_j divisible
  by d_{j-1}; elements at or above the conductor substitute
  sum (k_j - 1) gamma_j have alpha >= 0;
* semigroup membership  <=>  the normal form has alpha >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .chardata import CharData
from .errors import InvariantError, NotInGroupError


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
    es: tuple[int, ...]       # e_0, ..., e_level
    lambdas: tuple[Fraction, ...]

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
    return SemigroupDesc(
        level=i, free=e_i, gamma=tuple(gamma),
        ks=cd.ks[:i], es=cd.es[: i + 1], lambdas=cd.lambdas[:i])


def _group_gcd(sd: SemigroupDesc, upto: int) -> int:
    """d with d Z = the group spanned by free and gamma_1..gamma_upto."""
    return gcd(sd.free, *sd.gamma[:upto])


def group_member(a: int, sd: SemigroupDesc, upto: int | None = None) -> bool:
    """Membership of a in the group spanned by the free part and
    gamma_1..gamma_upto (defaults to the full level)."""
    upto = sd.level if upto is None else upto
    return _check_int(a) % _group_gcd(sd, upto) == 0


@dataclass(frozen=True)
class NormalForm:
    alpha: int
    betas: tuple[int, ...]


def normal_form(a: int, sd: SemigroupDesc, upto: int | None = None) -> NormalForm:
    """The unique representation a = free * alpha + sum beta_j * gamma_j
    with 0 <= beta_j <= k_j - 1.

    Found constructively: peel the top generator by locating the unique
    residue beta_j with a - beta_j * gamma_j in the previous group, then
    recurse; the base case divides by the free part.
    """
    upto = sd.level if upto is None else upto
    v = _check_int(a)
    betas = []
    for j in range(upto, 0, -1):
        d = _group_gcd(sd, j - 1)
        g = sd.gamma[j - 1]
        b = next((b for b in range(sd.ks[j - 1]) if (v - b * g) % d == 0), None)
        if b is None:
            raise NotInGroupError(f"{a!r} is not in the level-{upto} group")
        betas.append(b)
        v -= b * g
    if v % sd.free:
        raise NotInGroupError(f"{a!r} is not in the level-{upto} group")
    return NormalForm(alpha=v // sd.free, betas=tuple(reversed(betas)))


def recombine(nf: NormalForm, sd: SemigroupDesc) -> int:
    """Inverse of normal_form."""
    return sd.free * nf.alpha + sum(b * g for b, g in zip(nf.betas, sd.gamma))


def semigroup_member(a: int, sd: SemigroupDesc, upto: int | None = None) -> bool:
    """Membership in the semigroup (non-negative combinations only)."""
    try:
        nf = normal_form(a, sd, upto)
    except NotInGroupError:
        return False
    return nf.alpha >= 0


def conductor_bound(sd: SemigroupDesc, upto: int | None = None) -> int:
    """sum (k_j - 1) * gamma_j: from it on, group membership implies
    semigroup membership (the conductor substitute)."""
    upto = sd.level if upto is None else upto
    return sum((k - 1) * g for k, g in zip(sd.ks[:upto], sd.gamma[:upto]))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Per-index outcomes of the four generator identities.

    alt_generator:    gamma_{i+1} = free*lambda_{i+1} + sum_{j<=i} (k_j-1) gamma_j
    growth:           k_i gamma_i > sum_{j<=i} (k_j-1) gamma_j
    power_membership: k_i gamma_i lies in the level-(i-1) subsemigroup
    cross_positivity: e_{i-1} gamma_s - e_{s-1} gamma_i > 0  (i < s)
    """

    alt_generator: tuple[bool, ...]
    growth: tuple[bool, ...]
    power_membership: tuple[bool, ...]
    cross_positivity: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.alt_generator) and all(self.growth) and \
            all(self.power_membership) and all(self.cross_positivity)


def identity_suite(sd: SemigroupDesc) -> IdentityReport:
    s = sd.level
    alt = []
    for i in range(s):  # identity for gamma_{i+1}
        lam = sd.lambdas[i] * sd.free
        alt.append(lam.denominator == 1
                   and sd.gamma[i] == int(lam) + conductor_bound(sd, i))
    growth = []
    power = []
    for i in range(1, s + 1):
        kg = sd.ks[i - 1] * sd.gamma[i - 1]
        growth.append(kg > conductor_bound(sd, i))
        power.append(semigroup_member(kg, sd, upto=i - 1))
    cross = [sd.es[i - 1] * sd.gamma[s - 1] - sd.es[s - 1] * sd.gamma[i - 1] > 0
             for i in range(1, s)]
    return IdentityReport(
        alt_generator=tuple(alt), growth=tuple(growth),
        power_membership=tuple(power), cross_positivity=tuple(cross))
