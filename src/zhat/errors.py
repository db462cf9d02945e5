"""Exceptions shared across the package."""


class ZhatError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularMatrix(ZhatError):
    """Matrix is singular where an invertible one is required."""


class NotNegativeDefinite(ZhatError):
    """Quadratic form fails the required definiteness."""


class FormatError(ZhatError):
    """Malformed input file or serialized object."""


class NotATree(ZhatError):
    """Graph input is not a tree (cycle, disconnected, or bad edge count)."""


class InvalidTriple(ZhatError):
    """Exponent triple violates ordering or pairwise coprimality."""


class ExcludedTriple(ZhatError):
    """The (2, 3, 5) triple, for which the closed form needs an extra term."""


class InvalidFraction(ZhatError):
    """Continued-fraction input outside 0 < den < num with gcd 1."""


class EmptySeries(ZhatError):
    """No surviving terms below the truncation order.

    ``spinc`` is the class whose series is empty, when one is known.
    """

    def __init__(self, message: str = "", spinc=None):
        super().__init__(message)
        self.spinc = spinc


class ConsistencyError(ZhatError):
    """A relation the construction guarantees (an exact identity, not a
    rounding tolerance) fails to hold."""
