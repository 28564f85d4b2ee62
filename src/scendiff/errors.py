"""Exception types shared across the package."""


class ScendiffError(Exception):
    """Base class for all package errors."""


class SchemaError(ScendiffError):
    """CSV header does not match the documented schema."""


class ParseError(ScendiffError):
    """A cell could not be parsed; message carries the row number."""


class IntegrityError(ScendiffError):
    """Structurally corrupt input (duplicate rows, bad hour values, ...)."""


class InsufficientDataError(ScendiffError):
    """Too few days to perform the requested operation."""


class DegenerateScaleError(ScendiffError):
    """A feature has zero range and cannot be normalized."""


class DimensionError(ScendiffError):
    """Array shapes do not match the operation's contract."""


class ParameterError(ScendiffError):
    """An argument is outside its documented domain."""


class LPOverflowError(ParameterError):
    """A linear program with finite coefficients overflows the simplex arithmetic."""


class ScheduleTooShortError(ScendiffError):
    """Terminal signal level of a variance schedule is not close enough to zero."""


class TrainingDivergenceError(ScendiffError):
    """Loss or gradients became non-finite during training."""


class SamplingDivergenceError(ScendiffError):
    """An intermediate state became non-finite during reverse sampling."""


class ModelValidationError(ScendiffError):
    """A model checkpoint is malformed or does not match the run (e.g. its track)."""


class IterationLimitError(ScendiffError):
    """The simplex solver hit its iteration cap."""


class AlignmentError(ScendiffError):
    """Scenario and observation files do not cover the same days."""


class CoverageError(ScendiffError):
    """A requested (day, zone) combination has no scenarios."""
