"""Shared exception types.

Every deliberate refusal in this package raises one of these, so callers can
tell "the input is outside the supported window" apart from genuine bugs.
"""


class FlagvalError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(FlagvalError):
    """Malformed or out-of-domain argument."""


class UnsupportedField(FlagvalError):
    """Field order outside the supported window."""


class FactoringWindowExceeded(FlagvalError):
    """Multivariate input too large for the exact factoring tables."""


class UnsupportedResidue(FlagvalError):
    """Residue computation not available for this place."""


class ProportionalPair(FlagvalError):
    """Two characters that were required to be independent are proportional."""


class ClosureFailure(FlagvalError):
    """A set that must be multiplicatively closed within the arena is not."""


class OrderFailure(FlagvalError):
    """No compatible total order certified on the extracted quotient."""


class DependenceBoundTooSmall(FlagvalError):
    """Dependence search bound exhausted without a certificate."""


class PreconditionFailed(FlagvalError):
    """A documented precondition of the routine does not hold."""


class SizeBound(FlagvalError):
    """Requested enumeration exceeds the configured hard limit."""


class InvalidConfig(FlagvalError):
    """Suite configuration rejected."""


class UnknownSuite(FlagvalError):
    """Requested check suite is not registered."""
