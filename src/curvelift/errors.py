"""Exception hierarchy for the curvelift package."""


class CurveLiftError(Exception):
    """Base class for all errors raised by this package."""


# --- branch / characteristic data validation -------------------------------

class InvalidBranchError(CurveLiftError, ValueError):
    """Not a primitive branch with characteristic data: k, an exponent or a
    coefficient of the wrong type or sign, a zero coefficient, a repeated
    exponent, an exponent divisible by k, no terms, gcd(k, exponents) > 1,
    or CharData with a lambda that is no positive Fraction or lambdas that
    do not form an index chain up to k."""


# --- internal invariants -----------------------------------------------------

class InvariantError(CurveLiftError):
    """An internal consistency check failed: a bug, such as basis pullbacks
    whose orders are not the level's generators (checked before the first
    step), a lift pivot whose normal form has alpha < 0 or lies above the
    slice bound, a basis product that misses its order, an exhausted
    iteration budget, a residual step that outgrew its width or an f_i that
    is not monic; or a SemigroupDesc off an index chain, refused when built,
    so no bad record reaches a computation. Raised instead of asserting, so
    it also runs under ``python -O``."""


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
