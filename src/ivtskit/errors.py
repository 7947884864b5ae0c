"""Exception types shared across the package."""


class IvtsError(Exception):
    """Base class for every error this package raises deliberately."""


class DataError(IvtsError, ValueError):
    """A fault found in input data: a malformed file, or a class too small to split."""


class NonFinite(IvtsError):
    """A value that must be finite is NaN or infinite."""


class NegativeSquaredDistance(IvtsError):
    """The kernel quadratic form came out negative, so no real distance exists."""


class LengthMismatch(IvtsError):
    """Two sequences that must have equal length do not."""


class SeriesTooShort(IvtsError):
    """The series has too few steps for the requested trajectory extraction."""


class DimensionMismatch(IvtsError):
    """A per-dimension argument does not match the data's dimension count."""


class BlockGridInvalid(IvtsError):
    """The block-mean grid size is incompatible with the image size."""


class EmptyInput(IvtsError):
    """An operation that needs at least one element received none."""
