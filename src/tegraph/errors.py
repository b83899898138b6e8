"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3 (as is an OSError from opening or writing a file),
NumericError -> 4.
"""


class TegraphError(Exception):
    """Base class for all library errors."""


class ShapeError(TegraphError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(TegraphError, ValueError):
    """A model / training configuration is invalid or inconsistent."""


class DataError(TegraphError, ValueError):
    """Input data is malformed or unusable."""


class ParseError(DataError):
    """A skeleton file could not be parsed; message carries the line number."""


class GraphError(DataError):
    """A bone list does not describe a valid connected tree."""


class EmptyClipError(DataError):
    """All bodies of a clip were rejected by the motion filter."""


class NumericError(TegraphError, ArithmeticError):
    """A numeric failure: NaN/Inf values, divergence, or non-determinism."""
