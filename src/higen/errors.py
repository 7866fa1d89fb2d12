"""Exception hierarchy shared across the package.

CLI exit codes: ConfigError -> 2, DataError -> 3, NumericError -> 4.
"""


class HigenError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HigenError, ValueError):
    """Tensor or layer shapes do not compose."""


class ConfigError(HigenError, ValueError):
    """Invalid or inconsistent configuration."""


class DataError(HigenError, ValueError):
    """Malformed or missing input data."""


class NumericError(HigenError, ArithmeticError):
    """Non-finite values encountered during training or evaluation."""


class NormalizationError(NumericError):
    """A vector with zero norm cannot be L2-normalized."""


class IndexBuildError(HigenError, ValueError):
    """The docID set or trie violates a structural invariant."""


class CheckpointError(DataError):
    """A stored JSON document (checkpoint, index, report) is bad or too new."""
