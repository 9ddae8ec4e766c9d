"""Exception types shared across the package."""


class TemporalRangeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(TemporalRangeError):
    """Matrix data is malformed or contains non-finite entries."""


class ShapeMismatch(TemporalRangeError):
    """Array shapes are incompatible with the requested operation."""


class SpecError(TemporalRangeError):
    """A model, task, or run specification is invalid."""


class ConfigError(TemporalRangeError):
    """An analysis configuration does not match the supplied data."""


class NumericalError(TemporalRangeError):
    """A computation produced or received non-finite values."""


class FormatError(TemporalRangeError):
    """A serialized artifact could not be parsed."""


class VersionError(FormatError):
    """A serialized artifact declares an unsupported version."""


class DivergenceError(TemporalRangeError):
    """Training loss diverged beyond the configured guard."""
