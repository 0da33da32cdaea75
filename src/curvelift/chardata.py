"""Characteristic data of a plane-curve branch.

A branch is given by its parametrization x = t**k, y = zeta(t) with zeta a
polynomial whose exponents are positive integers not divisible by k
(coordinates are assumed normalized so that no integer-exponent monomial
survives). Building a Branch (by validate_branch, by hand or by
dataclasses.replace) is the one input boundary: it checks k and every
term, raising a typed CurveLiftError on invalid input, and derives the
characteristic data later stages take unchecked. The characteristic exponents
lambda_1 < ... < lambda_s are the places where the gcd of k and the
exponents read so far strictly drops. From them follow e_0 = 1,
e_i = lcm(e_{i-1}, denominator of lambda_i) = k / (the gcd after lambda_i),
the index jumps k_i = e_i / e_{i-1} and the exponent lattices

    M_i = Z + Z*lambda_1 + ... + Z*lambda_i = (1/e_i) Z.

The remaining terms split into per-level tails phi_i with
ord(phi_i) > k*lambda_i, deg(phi_i) < k*lambda_{i+1} and
Supp(phi_i) in k*M_i. These hold by construction: split_tails files each
tail term strictly between k*lambda_i and k*lambda_{i+1}, and a term that
is not a gcd drop is divisible by k/e_i, so it lies in k*M_i. The split
is computed where it is printed, by ``curvelift validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .algebra import Coeff, UniPoly, _norm_coeff
from .errors import InvalidBranchError


@dataclass(frozen=True)
class CharData:
    """Multiplicity k and characteristic exponents; ks and es are derived.
    A k that is no positive int, a lambda that is no positive Fraction, or
    lambdas off an index chain up to k raise InvalidBranchError."""

    k: int
    lambdas: tuple[Fraction, ...]
    ks: tuple[int, ...] = field(init=False)
    es: tuple[int, ...] = field(init=False)  # e_0 = 1, e_1, ..., e_s

    def __post_init__(self):
        _check_k(self.k)
        es = [1]
        for lam in self.lambdas:
            if type(lam) is not Fraction or lam <= 0:
                raise InvalidBranchError(
                    f"characteristic exponent must be a positive Fraction, got {lam!r}")
            es.append(lcm(es[-1], lam.denominator))
        object.__setattr__(self, "es", tuple(es))
        object.__setattr__(self, "ks", tuple(b // a for a, b in zip(es, es[1:])))
        if not (es[-1] == self.k and all(ki >= 2 for ki in self.ks)
                and all(a < b for a, b in zip(self.lambdas, self.lambdas[1:]))):
            raise InvalidBranchError(
                f"inconsistent characteristic data: k={self.k}, "
                f"lambdas={self.lambdas}, ks={self.ks}, es={self.es}")

    @property
    def s(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class Branch:
    """x = t**k, y = sum of c * t**e, checked when built. terms are a
    mapping {e: c} or (e, c) pairs, stored as sorted, normalized pairs; cd
    is derived. A malformed k, exponent or coefficient, a zero coefficient,
    a repeated exponent, an exponent divisible by k, no terms or a
    non-primitive support raises InvalidBranchError."""

    k: int
    terms: tuple[tuple[int, Coeff], ...]
    cd: CharData = field(init=False)

    def __post_init__(self):
        _check_k(self.k)
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        try:
            pairs = [(e, c) for e, c in items]
        except (TypeError, ValueError):
            raise InvalidBranchError(
                "terms must be a mapping or (exponent, coefficient) pairs") from None
        seen = {}
        for e, c in pairs:
            if type(e) is not int or e <= 0:
                raise InvalidBranchError(f"t-exponent must be a positive int, got {e!r}")
            if e in seen:
                raise InvalidBranchError(f"duplicate exponent {e}")
            if e % self.k == 0:
                raise InvalidBranchError(
                    f"exponent {e} is divisible by k = {self.k}; integer-exponent "
                    f"monomials must be removed by a coordinate change")
            try:
                c = _norm_coeff(c)
            except TypeError as exc:
                raise InvalidBranchError(f"exponent {e}: {exc}") from None
            if not c:
                raise InvalidBranchError(f"zero coefficient at exponent {e}")
            seen[e] = c
        object.__setattr__(self, "terms", tuple(sorted(seen.items())))
        object.__setattr__(self, "cd", extract_characteristics(self.k, seen))


def _check_k(k) -> None:
    if type(k) is not int or k < 1:
        raise InvalidBranchError(f"multiplicity k must be a positive int, got {k!r}")


def extract_characteristics(k: int, support) -> CharData:
    """Read the characteristic exponents off a t-exponent support set.

    The running gcd g_j = gcd(k, first j exponents) strictly drops exactly
    at the characteristic terms, and lambda_i = exponent / k.
    """
    _check_k(k)
    exps = set(support)
    if not exps:
        raise InvalidBranchError("the parametrization has no terms")
    if any(type(e) is not int or e <= 0 for e in exps):
        raise InvalidBranchError("support must consist of positive integers")
    g = k
    lambdas = []
    for m in sorted(exps):
        if (g2 := gcd(g, m)) < g:
            lambdas.append(Fraction(m, k))
            g = g2
    if g != 1:
        raise InvalidBranchError(
            f"gcd(k, support) = {g} > 1: parametrization is not primitive")
    return CharData(k=k, lambdas=tuple(lambdas))


def split_tails(cd: CharData, terms):
    """Split validated (exp, coeff) terms into (cs, phis) along the
    characteristic windows. The first term is characteristic (k does not
    divide it), and cd was read off these same terms, so every later term
    lands in a window and every characteristic exponent is met."""
    char_exps = [int(lam * cd.k) for lam in cd.lambdas]
    cs = []
    phis = [dict() for _ in range(cd.s)]
    level = 0
    for e, c in sorted(terms):
        if level < cd.s and e == char_exps[level]:
            cs.append(c)
            level += 1
        else:
            phis[level - 1][e] = c
    return tuple(cs), tuple(UniPoly(d) for d in phis)


def validate_branch(k: int, terms) -> Branch:
    """The checked Branch x = t**k, y = sum of c * t**e (see Branch)."""
    return Branch(k=k, terms=terms)
