"""Characteristic data of a plane-curve branch.

A branch is given by its parametrization x = t**k, y = zeta(t) with zeta a
polynomial whose exponents are positive integers not divisible by k
(coordinates are assumed normalized so that no integer-exponent monomial
survives). validate_branch(k, terms) is the one input boundary: it checks
k and every term, raising a typed CurveLiftError on invalid input, and
returns the Branch every later stage takes. The characteristic exponents
lambda_1 < ... < lambda_s are the places where the gcd of k and the
exponents read so far strictly drops; they determine the index jumps k_i,
the chain e_i = k_1 * ... * k_i and the exponent lattices

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
from .errors import InvalidBranchError


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
            raise InvalidBranchError(
                f"inconsistent characteristic data: k={self.k}, "
                f"lambdas={self.lambdas}, ks={self.ks}, es={self.es}")

    @property
    def s(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class Branch:
    """A validated branch: raw terms plus the per-level split."""

    k: int
    terms: tuple[tuple[int, Coeff], ...]
    cd: CharData
    cs: tuple[Coeff, ...]        # leading coefficients c_1, ..., c_s
    phis: tuple[UniPoly, ...]    # tails phi_1, ..., phi_s, in t


def _check_k(k) -> None:
    if type(k) is not int or k < 1:
        raise InvalidBranchError(f"multiplicity k must be a positive int, got {k!r}")


def extract_characteristics(k: int, support) -> CharData:
    """Read the characteristic exponents off a t-exponent support set.

    The running gcd g_j = gcd(k, first j exponents) strictly drops exactly
    at the characteristic terms; k_i is the drop ratio, and
    lambda_i = exponent / k.
    """
    _check_k(k)
    exps = set(support)
    if not exps:
        raise InvalidBranchError("the parametrization has no terms")
    if any(type(e) is not int or e <= 0 for e in exps):
        raise InvalidBranchError("support must consist of positive integers")
    g = k
    lambdas = []
    ks = []
    for m in sorted(exps):
        g2 = gcd(g, m)
        if g2 < g:
            lambdas.append(Fraction(m, k))
            ks.append(g // g2)
            g = g2
    if g != 1:
        raise InvalidBranchError(
            f"gcd(k, support) = {g} > 1: parametrization is not primitive")
    es = [1]
    for ki in ks:
        es.append(es[-1] * ki)
    return CharData(k=k, lambdas=tuple(lambdas), ks=tuple(ks), es=tuple(es))


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
    """Validate the parametrization x = t**k, y = sum of c * t**e and derive
    its characteristic data.

    ``terms`` is a mapping {e: c} or an iterable of (e, c) pairs. A
    malformed k, exponent or coefficient, a zero coefficient, a repeated
    exponent, an exponent divisible by k (the normalized coordinates carry
    no integer-exponent monomials), no terms or a non-primitive support
    raises InvalidBranchError. The split meets the tail conditions by
    construction.
    """
    _check_k(k)
    items = terms.items() if isinstance(terms, dict) else terms
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
        if e % k == 0:
            raise InvalidBranchError(
                f"exponent {e} is divisible by k = {k}; integer-exponent "
                f"monomials must be removed by a coordinate change")
        try:
            c = _norm_coeff(c)
        except TypeError as exc:
            raise InvalidBranchError(f"exponent {e}: {exc}") from None
        if not c:
            raise InvalidBranchError(f"zero coefficient at exponent {e}")
        seen[e] = c
    cd = extract_characteristics(k, seen)
    terms = tuple(sorted(seen.items()))
    cs, phis = split_tails(cd, terms)
    return Branch(k=k, terms=terms, cd=cd, cs=cs, phis=phis)
