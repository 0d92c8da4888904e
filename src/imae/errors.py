"""Exception types shared across the library, and the one bound check."""

import math


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class ConfigurationError(ValueError):
    """Loss/network/protocol combination is inconsistent. ``field`` names the
    one field at fault, when a single field is."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def check_range(field, value, low, high=None, rule=None):
    """Raise ConfigurationError(field=field) unless ``value`` is a finite number
    in [low, high]. ``rule`` words a finite value out of range; it defaults to
    "<field> must be >= <low>", so a check with a ``high`` passes its own."""
    if not -math.inf < value < math.inf:  # false for NaN as well; exact for any int
        raise ConfigurationError(f"{field} must be finite, got {value}", field=field)
    if value < low or high is not None and value > high:
        raise ConfigurationError(f"{rule or f'{field} must be >= {low}'}, got {value}", field=field)


class IdxFormatError(ValueError):
    """An IDX file violates the format contract (magic, counts, payload)."""


class CheckpointFormatError(ValueError):
    """A checkpoint file violates the format contract (magic, version)."""


class NumericalFailure(RuntimeError):
    """A computation produced a non-finite value (exit 2)."""


class TrainingDiverged(NumericalFailure):
    """Training produced a non-finite loss value."""

    def __init__(self, epoch, terms):
        self.epoch = epoch
        self.terms = dict(terms)
        msg = ", ".join(f"{k}={v!r}" for k, v in self.terms.items())
        super().__init__(f"non-finite loss at epoch {epoch}: {msg}")


class UsageError(Exception):
    """A command line or config file the commands cannot run (exit 1)."""
