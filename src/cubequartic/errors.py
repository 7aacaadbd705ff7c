"""Exception types shared across the package."""

__all__ = [
    "CubeQuarticError",
    "DimensionMismatchError",
    "ResourceLimitError",
    "UndefinedRatioError",
    "SetFileError",
]


class CubeQuarticError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CubeQuarticError):
    """Objects living on cubes of different dimension were combined."""


class ResourceLimitError(CubeQuarticError):
    """A dense or exhaustive computation would exceed a configured cap.

    Raised instead of silently switching algorithms; callers can retry
    with a larger cap if they really want the dense path.
    """


class UndefinedRatioError(CubeQuarticError):
    """A moment ratio was requested for the zero function."""


class SetFileError(CubeQuarticError):
    """A set file could not be parsed; the message names the bad line."""
