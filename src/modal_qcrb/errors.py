"""Exception types raised by the library, and the check of config numbers."""

import math


class ModalQcrbError(Exception):
    """Base class for all library errors."""


class GridMismatchError(ModalQcrbError):
    """Two modes that should share a sample grid do not."""


class StructuralError(ModalQcrbError):
    """An input violates a structural contract (shape, symmetry, basis)."""


class EvaluationError(ModalQcrbError):
    """A mode evaluation produced non-finite samples."""


class CutoffError(ModalQcrbError):
    """The Fock-space truncation cannot hold the requested state."""

    def __init__(self, message: str, suggested_cutoff: int | None = None):
        self.suggested_cutoff = suggested_cutoff
        if suggested_cutoff is not None:
            message = f"{message} (suggested per-mode cutoff: {suggested_cutoff})"
        super().__init__(message)


class GridResolutionError(ModalQcrbError):
    """The sample grid is too coarse to resolve the mode family."""


class PreconditionError(ModalQcrbError):
    """An operation's physical precondition is violated."""


class ConfigError(StructuralError):
    """A run configuration or probe spec is invalid; the message names the field."""


def finite_number(name: str, value) -> float:
    """A config value that must be a finite JSON number; true and false are not."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{name}: must be a finite number, got {value!r}")


def whole_number(name: str, value) -> int:
    """A config value that must be a whole number; 2.0 passes, 2.5 does not."""
    if not finite_number(name, value).is_integer():
        raise ConfigError(f"{name}: must be a whole number, got {value!r}")
    return int(value)
