"""Exception types shared across the toolkit, and the setting checks."""

import math
import numbers


class StationcastError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(StationcastError):
    """Input data violates the declared schema (unknown factor, bad header)."""


class StructuralError(StationcastError):
    """Input data is structurally inconsistent (ragged lengths, bad magic)."""


class ConfigError(StationcastError):
    """A configuration value is out of its valid range or inconsistent."""


class PipelineError(StationcastError):
    """A data-pipeline step cannot proceed (all stations dropped, unfillable gap)."""


class ShapeError(StationcastError):
    """Tensor shapes are incompatible for the requested operation."""


class TrainingError(StationcastError):
    """Training aborted (non-finite loss, invalid schedule)."""


class CheckpointError(StationcastError):
    """A checkpoint file is corrupt or from an incompatible version."""


class RegressionError(StationcastError):
    """A regression fit is ill-posed or a model is used before fitting."""


def check_ints(low: int, **fields) -> None:
    """Each keyword's value must be an integer of at least `low`; a bool is
    not one.  The ConfigError names the first field that fails."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} {value!r} is not an integer")
        if value < low:
            raise ConfigError(f"{name} {value} must be at least {low}")


def check_reals(*, finite: bool = True, **fields) -> None:
    """Each keyword's value must be a real number, finite unless `finite` is
    false; a bool is not one.  Call it before a range check, which raises
    TypeError on a string.  The ConfigError names the first field failing."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or finite and not math.isfinite(value):
            raise ConfigError(f"{name} {value!r} is not a finite number")


def check_distinct(name: str, values) -> None:
    """No value may appear twice; the ConfigError names the first repeat."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{name} {value!r} is repeated")
        seen.add(value)
