"""Exception hierarchy shared by all spikecast modules, and the one check
of an integer setting."""
from numbers import Integral


class SpikecastError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SpikecastError):
    """Malformed input document (bad row, non-numeric cell, ...)."""


class ValidationError(SpikecastError):
    """Input violates a documented precondition or invariant."""


class InsufficientDataError(ValidationError):
    """Too few observations for the requested operation."""


class DegenerateSeriesError(ValidationError):
    """Series has zero variance; normalization is undefined."""


class KindError(ValidationError):
    """Operation applied to the wrong series kind (raw vs normalized)."""


class AlignmentError(ValidationError):
    """Year sets of the input sources have an empty intersection."""


class ContractError(SpikecastError):
    """Shape or dimension mismatch between cooperating components."""


class RankError(SpikecastError):
    """Requested more principal components than the data supports."""


class NumericError(SpikecastError):
    """Non-finite value encountered where finiteness is required."""


class ConfigError(SpikecastError):
    """Invalid configuration value."""


class BackendError(SpikecastError):
    """Transient text-backend failure; the caller may retry."""


class InvalidDraftError(SpikecastError):
    """Backend produced an unusable (e.g. empty) draft summary."""


class StoreError(SpikecastError):
    """Summary/embedding store could not be read or written."""


class CheckpointIntegrityError(SpikecastError):
    """Checkpoint file is truncated or internally inconsistent."""


class CheckpointVersionError(SpikecastError):
    """Checkpoint was written by an incompatible format version."""


class UndefinedMetricError(SpikecastError):
    """Metric is undefined for the given inputs (e.g. single-class AUC)."""


def check_count(name: str, value, least: int, error: type[SpikecastError] = ConfigError):
    """Raise `error` unless value is an integer (a bool is not) and >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
