"""Value semigroup of a branch truncation: a numerical semigroup in N_0.

At level i the value semigroup is generated by e_i together with

    gamma_1 = e_i * lambda_1,
    gamma_{j+1} = k_j * gamma_j - e_i * lambda_j + e_i * lambda_{j+1}.

The recurrence keeps the same scale e_i on both exponent terms; this is
the only reading that reproduces the reference generator sets
{6,9,19}, {12,18,38,117}, {6,9,25} and {6,8,25} used in the tests.

Core facts used here:

* the group spanned by e_i and gamma_1..gamma_j is d_j Z with
  d_j = e_i / e_j = k_{j+1} * ... * k_i; at j = i it is Z;
* so every integer a has a unique representation
  a = e_i * alpha + sum beta_j gamma_j with 0 <= beta_j < k_j (the normal
  form), read from the top: v = a - sum_{l>j} beta_l gamma_l lies in d_j Z
  and beta_j = (v/d_j) * (gamma_j/d_j)^-1 mod k_j moves it into d_{j-1} Z;
* semigroup membership  <=>  the normal form has alpha >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .chardata import CharData
from .errors import InvariantError


def _check_int(a) -> int:
    if type(a) is not int:
        raise TypeError(f"expected an int, got {a!r}")
    return a


@dataclass(frozen=True)
class SemigroupDesc:
    """Generators (free; gamma_1, ..., gamma_i) at one truncation level i.

    free = k_1 * ... * k_i is derived. A desc that is no index chain (one
    cap per gamma, and from the top each gamma_j in d_j Z with gamma_j/d_j
    a unit mod k_j; see the module docstring) raises InvariantError when it
    is built, so every SemigroupDesc gives every integer a normal form.
    """

    gamma: tuple[int, ...]
    ks: tuple[int, ...]       # caps k_1, ..., k_i
    free: int = field(init=False)  # e_i

    def __post_init__(self):
        ok = len(self.gamma) == len(self.ks)
        d = 1
        for g, k in zip(reversed(self.gamma), reversed(self.ks)):
            ok = ok and g % d == 0 and k >= 1 and gcd(g // d, k) == 1
            d *= k
        if not ok:
            raise InvariantError(f"gamma {self.gamma} with caps {self.ks} is no index chain")
        object.__setattr__(self, "free", d)

    def generators_list(self) -> list[int]:
        """[free, gamma_1, ..., gamma_i]."""
        return [self.free, *self.gamma]


def generators(cd: CharData, i: int) -> SemigroupDesc:
    """Semigroup generators for the level-i truncation of a plane branch."""
    if not 1 <= i <= cd.s:
        raise IndexError(f"level {i} out of range 1..{cd.s}")
    e_i = cd.es[i]
    gamma: list[int] = []
    prev_lam = 0
    for j, lam in enumerate(cd.lambdas[:i]):
        lam_e = int(lam * e_i)   # e_i is a multiple of lambda_1..lambda_i's denominators
        gamma.append(lam_e if j == 0 else cd.ks[j - 1] * gamma[-1] - prev_lam + lam_e)
        prev_lam = lam_e
    return SemigroupDesc(gamma=tuple(gamma), ks=cd.ks[:i])


def normal_form(a: int, sd: SemigroupDesc) -> tuple[int, ...]:
    """The pivot tuple (alpha, beta_1, ..., beta_i) of the normal form
    a = free * alpha + sum beta_j * gamma_j, 0 <= beta_j <= k_j - 1.

    Read off the index chain from the top, with no search (see the module
    docstring); alpha = v / free once d = k_1 * ... * k_i. The desc was
    checked when it was built, so every division here is exact.
    """
    v = _check_int(a)
    d = 1
    betas = []
    for g, k in zip(reversed(sd.gamma), reversed(sd.ks)):
        b = v // d * pow(g // d, -1, k) % k
        betas.append(b)
        v -= b * g
        d *= k
    return (v // d, *reversed(betas))


def semigroup_member(a: int, sd: SemigroupDesc) -> bool:
    """Membership in the semigroup (non-negative combinations only)."""
    return normal_form(a, sd)[0] >= 0
