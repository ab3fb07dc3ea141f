"""Exception types shared across the package."""

__all__ = [
    "XftError", "InvalidSizeError", "ParameterError", "SingularParameterError",
    "DegenerateParameterError", "UnsupportedBranchError", "ShapeError",
    "GridMismatchError", "ConvergenceError", "TruncationWarning",
]


class XftError(Exception):
    """Base class for all package-specific errors."""


class InvalidSizeError(XftError, ValueError):
    """A size argument is zero, negative, or beyond a documented guard."""


class ParameterError(XftError, ValueError):
    """A transform parameter is outside its admissible domain."""


class SingularParameterError(ParameterError):
    """A parameter sits exactly on a singularity of the formula (e.g. z = +-1)."""


class DegenerateParameterError(ParameterError):
    """b = 0 (or sin(theta) = 0): the integral kernel degenerates to the
    multiplication/scaling branch and a different entry point must be used."""


class UnsupportedBranchError(ParameterError):
    """The requested parameter region has no defined branch (e.g. sqrt(d), d <= 0)."""


class ShapeError(XftError, ValueError):
    """Vector/matrix dimensions do not agree."""


class GridMismatchError(ShapeError):
    """Input samples are not aligned with the expected sampling grid."""


class ConvergenceError(XftError, RuntimeError):
    """An iteration failed to converge within its cap."""


class TruncationWarning(UserWarning):
    """The quadrature interval truncates an integrand that has not decayed."""
