"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class ConfigurationError(ValueError):
    """Loss/network/protocol combination is inconsistent. ``field`` names the
    one field at fault, when a single field is."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class IdxFormatError(ValueError):
    """An IDX file violates the format contract (magic, counts, payload)."""


class CheckpointFormatError(ValueError):
    """A checkpoint file violates the format contract (magic, version)."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss value."""

    def __init__(self, epoch, terms):
        self.epoch = epoch
        self.terms = dict(terms)
        msg = ", ".join(f"{k}={v!r}" for k, v in self.terms.items())
        super().__init__(f"non-finite loss at epoch {epoch}: {msg}")
