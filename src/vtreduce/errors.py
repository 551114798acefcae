"""Exception hierarchy shared across the token reduction pipeline."""

import contextlib


class VtReduceError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(VtReduceError):
    """Array rank, dimension, or length does not match the contract."""


class BudgetError(VtReduceError):
    """A requested token budget is infeasible for the available tokens."""


class DegenerateInputError(VtReduceError):
    """Numerically degenerate input (zero-norm vector, non-finite value)."""


class FormatError(VtReduceError):
    """Malformed tensor file or trace bundle on disk.

    ``offset`` is the byte offset of the problem when it is known,
    otherwise None (e.g. manifest-level problems).
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class TraceError(VtReduceError):
    """A trace is internally inconsistent or lacks a required array."""


class LayoutError(VtReduceError):
    """A token span or layer index falls outside the trace layout."""


class ConfigError(VtReduceError):
    """Invalid or inconsistent configuration; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@contextlib.contextmanager
def os_error_as(field: str):
    """Re-raise an ``OSError`` from the block as a ConfigError of ``field``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(field, str(exc)) from exc
