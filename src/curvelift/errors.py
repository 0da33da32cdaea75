"""Exception hierarchy for the curvelift package."""


class CurveLiftError(Exception):
    """Base class for all errors raised by this package."""


# --- branch / characteristic data validation -------------------------------

class InconsistentCharDataError(CurveLiftError):
    """Characteristic data whose k, lambda, k_i and e_i chains disagree."""


class EmptySupportError(CurveLiftError):
    """The parametrization has no terms."""


class NonPrimitiveError(CurveLiftError):
    """gcd(k, exponents) > 1: the parametrization is not primitive."""


class IntegerExponentError(CurveLiftError):
    """A term has exponent divisible by k; forbidden by the coordinate
    normalization that removes integer-exponent monomials."""


class TailOrderViolationError(CurveLiftError):
    """A tail violates the order/degree window of its level."""


# --- semigroup --------------------------------------------------------------

class NonIntegralGeneratorError(CurveLiftError):
    """A semigroup generator failed to be an integer vector (corrupt input)."""


class NotInGroupError(CurveLiftError):
    """The element is not in the group spanned by the generators."""


# --- Weierstrass division ---------------------------------------------------

class NotWeierstrassError(CurveLiftError):
    """Divisor is not a Weierstrass polynomial in y."""


class DegreeTooSmallError(CurveLiftError):
    """deg_y of the dividend does not exceed deg_y of the divisor."""


class DegreeOutOfRangeError(CurveLiftError):
    """deg_y of the input is too large for the requested decomposition."""


# --- internal invariants and the elimination loop ---------------------------

class InvariantError(CurveLiftError):
    """An internal consistency check failed: corrupt data or a bug. Raised
    instead of asserting, so the check also runs under ``python -O``."""


class EmptySliceError(CurveLiftError):
    """The lattice slice is empty while the valuation is still finite;
    signals corrupt input or an implementation bug."""


class IterationBudgetError(CurveLiftError):
    """The elimination loop exceeded its support-derived iteration bound;
    impossible for valid input, hence an internal error."""


# --- oracle -----------------------------------------------------------------

class OracleBoundError(CurveLiftError):
    """Resultant oracle declined: Sylvester dimension above the configured
    bound."""


# --- CLI --------------------------------------------------------------------

class CurveFileError(CurveLiftError):
    """Malformed curve file."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(where + message)
