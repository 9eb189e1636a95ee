"""Exception types shared across the package.

Each class maps to one failure category so callers (and the CLI exit-code
mapping) can tell configuration mistakes, bad data, and numeric blow-ups
apart without parsing messages.
"""

__all__ = [
    "TsformerError",
    "DimensionError",
    "ConfigError",
    "DataError",
    "NumericError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointChecksumError",
]


class TsformerError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(TsformerError, ValueError):
    """Tensor shapes or lengths do not satisfy an operation's contract."""


class ConfigError(TsformerError, ValueError):
    """A model or training configuration violates its invariants."""


class DataError(TsformerError, ValueError):
    """Input data cannot be ingested or split as requested."""


class NumericError(TsformerError, ArithmeticError):
    """A computation produced NaN/Inf where finite values are required."""


class CheckpointError(TsformerError):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Bad magic bytes, unsupported version, or truncated payload."""


class CheckpointChecksumError(CheckpointError):
    """Stored CRC does not match the file contents."""
