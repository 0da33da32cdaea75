"""Characteristic data of a plane-curve branch.

A branch is given by its parametrization x = t**k, y = zeta(t) with zeta a
polynomial whose exponents are positive integers not divisible by k
(coordinates are assumed normalized so that no integer-exponent monomial
survives). The characteristic exponents lambda_1 < ... < lambda_s are the
places where the gcd of k and the exponents read so far strictly drops;
they determine the index jumps k_i, the chain e_i = k_1 * ... * k_i and the
exponent lattices

    M_i = Z + Z*lambda_1 + ... + Z*lambda_i = (1/e_i) Z.

The remaining terms split into per-level tails phi_i with
ord(phi_i) > k*lambda_i, deg(phi_i) < k*lambda_{i+1} and
Supp(phi_i) in k*M_i. These hold by construction: split_tails files each
tail term strictly between k*lambda_i and k*lambda_{i+1}, and a term that
is not a gcd drop is divisible by k/e_i, so it lies in k*M_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import Coeff, UniPoly, _norm_coeff
from .errors import (
    EmptySupportError,
    InconsistentCharDataError,
    IntegerExponentError,
    NonPrimitiveError,
    TailOrderViolationError,
)


@dataclass(frozen=True)
class CharData:
    """Multiplicity k, characteristic exponents and derived chains."""

    k: int
    lambdas: tuple[Fraction, ...]
    ks: tuple[int, ...]
    es: tuple[int, ...]  # e_0 = 1, e_1, ..., e_s with e_s = k

    def __post_init__(self):
        s = len(self.lambdas)
        if not (len(self.ks) == s and len(self.es) == s + 1
                and self.es[0] == 1 and self.es[-1] == self.k
                and all(ki >= 2 and self.es[i + 1] == ki * self.es[i]
                        for i, ki in enumerate(self.ks))
                and all(a < b for a, b in zip(self.lambdas, self.lambdas[1:]))):
            raise InconsistentCharDataError(
                f"inconsistent characteristic data: k={self.k}, "
                f"lambdas={self.lambdas}, ks={self.ks}, es={self.es}")

    @property
    def s(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class BranchInput:
    """Raw parametrization data: x = t**k, y = sum of coeff * t**exp."""

    k: int
    terms: tuple[tuple[int, Coeff], ...]

    @classmethod
    def from_terms(cls, k: int, terms) -> "BranchInput":
        if k < 1:
            raise ValueError("multiplicity k must be a positive integer")
        items = terms.items() if isinstance(terms, dict) else terms
        seen = {}
        for e, c in items:
            if type(e) is not int or e <= 0:
                raise ValueError(f"t-exponent must be a positive int, got {e!r}")
            c = _norm_coeff(c)
            if not c:
                raise ValueError(f"zero coefficient at exponent {e}")
            if e in seen:
                raise ValueError(f"duplicate exponent {e}")
            seen[e] = c
        return cls(k=k, terms=tuple(sorted(seen.items())))


@dataclass(frozen=True)
class Branch:
    """A validated branch: raw terms plus the per-level split."""

    k: int
    terms: tuple[tuple[int, Coeff], ...]
    cd: CharData
    cs: tuple[Coeff, ...]        # leading coefficients c_1, ..., c_s
    phis: tuple[UniPoly, ...]    # tails phi_1, ..., phi_s, in t

    @property
    def s(self) -> int:
        return self.cd.s

    def zeta(self) -> UniPoly:
        return UniPoly(self.terms)


def extract_characteristics(k: int, support) -> CharData:
    """Read the characteristic exponents off a t-exponent support set.

    The running gcd g_j = gcd(k, first j exponents) strictly drops exactly
    at the characteristic terms; k_i is the drop ratio, and
    lambda_i = exponent / k.
    """
    if k < 1:
        raise ValueError("multiplicity k must be a positive integer")
    exps = sorted(set(support))
    if not exps:
        raise EmptySupportError("the parametrization has no terms")
    if any(type(e) is not int or e <= 0 for e in exps):
        raise ValueError("support must consist of positive integers")
    g = k
    lambdas = []
    ks = []
    for m in exps:
        g2 = gcd(g, m)
        if g2 < g:
            lambdas.append(Fraction(m, k))
            ks.append(g // g2)
            g = g2
    if g != 1:
        raise NonPrimitiveError(
            f"gcd(k, support) = {g} > 1: parametrization is not primitive")
    es = [1]
    for ki in ks:
        es.append(es[-1] * ki)
    return CharData(k=k, lambdas=tuple(lambdas), ks=tuple(ks), es=tuple(es))


def in_lattice(a, i: int, cd: CharData) -> bool:
    """Membership of a rational in M_i = (1/e_i) Z."""
    if not 0 <= i <= cd.s:
        raise IndexError(f"lattice level {i} out of range 0..{cd.s}")
    return (Fraction(a) * cd.es[i]).denominator == 1


def split_tails(cd: CharData, terms):
    """Split sorted (exp, coeff) terms into (cs, phis) along the
    characteristic windows. Every characteristic exponent must be present."""
    k = cd.k
    char_exps = [int(lam * k) for lam in cd.lambdas]
    cs = []
    phis = [dict() for _ in range(cd.s)]
    level = 0
    for e, c in sorted(terms):
        if level < cd.s and e == char_exps[level]:
            cs.append(c)
            level += 1
        else:
            if level == 0:
                raise TailOrderViolationError(
                    f"term t^{e} precedes the first characteristic exponent")
            phis[level - 1][e] = c
    if level != cd.s:
        raise ValueError("terms do not realize all characteristic exponents")
    return tuple(cs), tuple(UniPoly(d) for d in phis)


def validate_branch(b: BranchInput) -> Branch:
    """Validate a raw parametrization and derive its characteristic data.

    Re-runs BranchInput.from_terms, so an instance built directly gets the
    same checks. Rejects terms with exponent divisible by k (the normalized
    coordinates carry no integer-exponent monomials) and non-primitive
    inputs; then extracts CharData and derives the split, which meets the
    tail conditions by construction.
    """
    b = BranchInput.from_terms(b.k, b.terms)
    for e, _ in b.terms:
        if e % b.k == 0:
            raise IntegerExponentError(
                f"exponent {e} is divisible by k = {b.k}; integer-exponent "
                f"monomials must be removed by a coordinate change")
    cd = extract_characteristics(b.k, [e for e, _ in b.terms])
    cs, phis = split_tails(cd, b.terms)
    return Branch(k=b.k, terms=b.terms, cd=cd, cs=cs, phis=phis)
