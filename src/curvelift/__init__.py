"""curvelift: implicit equations of plane-curve branch truncations.

From a polynomial parametrization x = t**k, y = zeta(t) of an irreducible
plane-curve branch, compute the defining polynomials f_1, ..., f_s of its
characteristic truncations by a value-semigroup-guided finite elimination,
certify the valuation identities they satisfy, and cross-check against an
independent resultant oracle.
"""

from .algebra import (INFINITY, BiPoly, Coeff, UniPoly, bipoly_exact_div,
                      sylvester_det)
from .chardata import (Branch, CharData, extract_characteristics, in_lattice,
                       validate_branch)
from .errors import CurveLiftError
from .implicitize import LevelCertificate, LiftChain, certify, implicitize_all, lift
from .oracle import resultant_implicitize
from .parametrize import Parametrization, truncation, valuation_table
from .polygon import (PolygonDesc, SliceQuery, lattice_slice, mu, polygon_contains,
                      polygon_desc)
from .semigroup import (IdentityReport, NormalForm, SemigroupDesc, conductor_bound,
                        generators, group_member, identity_suite, normal_form,
                        recombine, semigroup_member)
from .weierstrass import (AdicDecomposition, adic_decompose, adic_reconstruct,
                          basis_decompose, basis_reconstruct, is_weierstrass,
                          weierstrass_divide)

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "BiPoly", "Coeff", "UniPoly", "bipoly_exact_div",
    "sylvester_det",
    "Branch", "CharData", "extract_characteristics",
    "in_lattice", "validate_branch",
    "CurveLiftError",
    "LevelCertificate", "LiftChain", "certify", "implicitize_all", "lift",
    "resultant_implicitize",
    "Parametrization", "truncation", "valuation_table",
    "PolygonDesc", "SliceQuery", "lattice_slice", "mu", "polygon_contains",
    "polygon_desc",
    "IdentityReport", "NormalForm", "SemigroupDesc", "conductor_bound",
    "generators", "group_member", "identity_suite", "normal_form", "recombine",
    "semigroup_member",
    "AdicDecomposition", "adic_decompose", "adic_reconstruct", "basis_decompose",
    "basis_reconstruct", "is_weierstrass", "weierstrass_divide",
    "__version__",
]
