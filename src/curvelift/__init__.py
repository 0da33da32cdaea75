"""curvelift: implicit equations of plane-curve branch truncations.

From a polynomial parametrization x = t**k, y = zeta(t) of an irreducible
plane-curve branch, compute the defining polynomials f_1, ..., f_s of its
characteristic truncations by a value-semigroup-guided finite elimination,
certify the valuation identities they satisfy, and cross-check against an
independent resultant oracle.
"""

from .algebra import INFINITY, BiPoly, Coeff, UniPoly
from .chardata import Branch, CharData, extract_characteristics, validate_branch
from .errors import CurveLiftError
from .implicitize import LevelCertificate, LiftChain, certify, implicitize_all, lift
from .oracle import resultant_implicitize
from .parametrize import Parametrization, truncation, valuation_table
from .polygon import PolygonDesc, polygon_contains, polygon_desc
from .semigroup import SemigroupDesc, generators, normal_form
from .weierstrass import basis_reconstruct, is_weierstrass

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "BiPoly", "Coeff", "UniPoly",
    "Branch", "CharData", "extract_characteristics", "validate_branch",
    "CurveLiftError",
    "LevelCertificate", "LiftChain", "certify", "implicitize_all", "lift",
    "resultant_implicitize",
    "Parametrization", "truncation", "valuation_table",
    "PolygonDesc", "polygon_contains", "polygon_desc",
    "SemigroupDesc", "generators", "normal_form",
    "basis_reconstruct", "is_weierstrass",
    "__version__",
]
