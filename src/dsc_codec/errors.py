"""Exception types shared across the codec stack.

Decode-side failures are deliberately split into distinct classes so a
receiver can tell a malformed byte stream from a codebook disagreement from
a corrupted symbol, and react accordingly (typically: drop the link and fall
back to local features).

Two range checks shared by every module raise ConfigError with one wording:
require_nonnegative (finite and >= 0) and require_unit_interval (in [0,1]).
NaN fails both.
"""

import math


class CodecError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CodecError, ValueError):
    """An argument or configuration value violates its documented range."""


class ShapeMismatchError(CodecError, ValueError):
    """Operands whose dimensions must agree do not."""


class InsufficientDataError(CodecError, ValueError):
    """Too few samples to fit the requested model (k-means, PCA, ridge)."""


class UndefinedCorrelationError(CodecError, ArithmeticError):
    """Pearson correlation requested on a constant (zero-variance) input."""


class FrequencyTableError(CodecError, ValueError):
    """Invalid frequency table, or a symbol coded with zero frequency."""


class FormatError(CodecError, ValueError):
    """A container file (feature map, codebook, codec params) is malformed."""


class DecodeError(CodecError, RuntimeError):
    """Base class for failures while decoding a received message."""


class MessageParseError(DecodeError):
    """Message bytes do not parse as the documented wire format."""


class CodebookMismatchError(DecodeError):
    """Codebook version hashes disagree between message, params and codebook."""


class HeaderMismatchError(DecodeError, ShapeMismatchError):
    """A message header disagrees with the codec parameters or the local feature."""


class SymbolOutOfRangeError(DecodeError):
    """A decoded symbol index falls outside the codebook."""


class StepRejectedError(CodecError, RuntimeError):
    """A fine-tune step produced a non-finite loss; parameters were not touched."""


def require_nonnegative(name: str, value: float) -> None:
    """Raise ConfigError unless value is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def require_unit_interval(name: str, value: float) -> None:
    """Raise ConfigError unless value lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0,1], got {value}")
