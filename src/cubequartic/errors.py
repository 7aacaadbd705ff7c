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
    """A set has no route within the configured caps at some stage.

    ``additive.plan`` raises it before any work, naming the stage; callers
    can retry with a larger cap.
    """


class UndefinedRatioError(CubeQuarticError):
    """A moment ratio was requested for the zero function."""


class SetFileError(CubeQuarticError):
    """A set file could not be parsed; the message names the bad line."""
