"""Exception types shared across the codec stack.

Decode-side failures are deliberately split into distinct classes so a
receiver can tell a malformed byte stream from a codebook disagreement from
a corrupted symbol, and react accordingly (typically: drop the link and fall
back to local features).

Four checks shared by every module raise ConfigError with one wording:

  * require_nonnegative: finite and >= 0;
  * require_unit_interval: in [0,1];
  * require_int: an integer, numpy integers included, within bounds; every
    public count, index and size goes through it;
  * frozen_array: the read-only, C-order, finite array of a given dtype and
    shape that every immutable container stores.

NaN fails all four.
"""

import math
import numbers

import numpy as np


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


def require_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ConfigError unless value is an integer >= low and, given high, <= high."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be {bounds}, got {value}")


def frozen_array(name: str, values, dtype, shape: tuple[int | None, ...]) -> np.ndarray:
    """Read-only C-order copy of values in dtype, of the given shape, all finite.

    The copy has exactly len(shape) dimensions. Each entry of shape is a
    required size, or None for any size >= 1. The copy shares no memory
    with values, so later writes to values do not reach it.
    """
    arr = np.array(values, dtype=dtype, order="C")
    if arr.ndim != len(shape) or any(
        size < 1 if want is None else size != want for size, want in zip(arr.shape, shape)
    ):
        spec = ", ".join(">=1" if size is None else str(size) for size in shape)
        got = ", ".join(str(size) for size in arr.shape)
        raise ConfigError(f"{name} must have shape ({spec}), got ({got})")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} contains non-finite values")
    arr.flags.writeable = False
    return arr
