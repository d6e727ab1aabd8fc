"""Exception types shared across the package.

Everything derives from CtqwError so callers can catch broadly; the CLI maps
ConfigError to exit code 3, AssertionFailure to 2 and InconsistencyError to 4.
check_count is the one integer-count check every module shares.
"""
from numbers import Integral

__all__ = [
    "CtqwError",
    "ValidationError",
    "NonHermitianError",
    "EmptyOperatorError",
    "GapUndefinedError",
    "AmbiguousDegeneracyError",
    "DegenerateProbabilityError",
    "InvalidLabelError",
    "NonErgodicError",
    "IrreversibleChainError",
    "MarkedWeightError",
    "InconsistencyError",
    "AssertionFailure",
    "ConfigError",
    "check_count",
]


class CtqwError(Exception):
    """Base class for package errors."""


class ValidationError(CtqwError, ValueError):
    """An object failed its construction-time invariants."""


class NonHermitianError(ValidationError):
    """Matrix is not Hermitian within tolerance; message names the entry pair."""


class EmptyOperatorError(ValidationError):
    """Zero-dimensional operator."""


class GapUndefinedError(CtqwError):
    """Gap requested for a spectrum with fewer than two eigenspaces."""


class AmbiguousDegeneracyError(ValidationError):
    """Eigenvalue clusters cannot be grouped consistently at this tolerance."""


class DegenerateProbabilityError(CtqwError):
    """All averaged probabilities on the grid are numerically zero."""


class InvalidLabelError(CtqwError, KeyError):
    """Label not present in a glued-trees instance."""


class NonErgodicError(ValidationError):
    """Chain is not ergodic; message names a vertex cut off from vertex 0, or the period."""


class IrreversibleChainError(ValidationError):
    """Detailed balance fails; message carries the worst residual."""


class MarkedWeightError(ValidationError):
    """Marked vertex holds at least half the stationary weight; s* undefined."""


class InconsistencyError(CtqwError):
    """Two supposedly-equivalent computations disagree beyond tolerance."""


class AssertionFailure(CtqwError):
    """A certified inequality failed on real data (CLI exit code 2)."""


class ConfigError(CtqwError):
    """Malformed experiment configuration; message names the field."""


def check_count(value, name: str, least: int = 1) -> None:
    """Refuse a count that is not an integer >= least; a bool is no count."""
    if isinstance(value, bool) or not (isinstance(value, (int, Integral)) and value >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value}")
