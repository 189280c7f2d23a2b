"""Exception types shared across the codec stack.

Decode-side failures are deliberately split into distinct classes so a
receiver can tell a malformed byte stream from a codebook disagreement from
a corrupted symbol, and react accordingly (typically: drop the link and fall
back to local features).

Five checks shared by every module raise ConfigError with one wording:

  * require_real: a real number; require_nonnegative (finite and >= 0) and
    require_unit_interval (in [0,1]) run it first;
  * require_int: an integer, numpy integers included, within bounds; every
    public count, index and size goes through it;
  * frozen_array: the read-only, C-order, finite array of a given dtype and
    shape that every immutable container stores.

NaN fails every check but require_real.

Three rules for the files the package loads, and for index sequences, are
written here once:

  * read_container and write_container: the binary containers (.fmap, .cdbk,
    .dccp), a magic-tagged little-endian header followed by row-major blocks
    whose shapes the header gives. A file too short for its header, a foreign
    magic, a length other than header plus blocks, or blocks that build no
    valid value raise FormatError;
  * ascii_lines: the lines of a text file (scenario, sweep CSV), broken at
    LF, CRLF or a lone CR; a non-ASCII byte raises FormatError naming
    path:line and its column;
  * index_array: an int64 index sequence; entries that are not integers
    within int64 range raise ConfigError, and any rank but 1 raises
    ShapeMismatchError.
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
    """A container (feature map, codebook, codec params), scenario or sweep CSV is malformed."""


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


def require_real(name: str, value) -> None:
    """Raise ConfigError unless value is a real number."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def require_nonnegative(name: str, value: float) -> None:
    """Raise ConfigError unless value is finite and >= 0."""
    require_real(name, value)
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def require_unit_interval(name: str, value: float) -> None:
    """Raise ConfigError unless value lies in [0, 1]."""
    require_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0,1], got {value}")


def require_int(name: str, value, low: int | None, high: int | None = None) -> None:
    """Raise ConfigError unless value is an integer >= low and, given high, <= high.

    low=None checks the type only (high must then be None too).
    """
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if low is not None and (value < low or (high is not None and value > high)):
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


def index_array(name: str, values) -> np.ndarray:
    """values as a 1-d int64 array.

    The entries must be of an integer dtype and within int64 range: a
    float (NaN included), a non-numeric entry or an integer past int64
    range raises ConfigError rather than being truncated or wrapped. An
    empty sequence is valid whatever its dtype. Any rank but 1 raises
    ShapeMismatchError.
    """
    try:
        arr = np.asarray(values)
        if arr.size and arr.dtype.kind not in "iu":
            raise TypeError(f"entries of dtype {arr.dtype} are not integers")
        if arr.size and arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max:
            raise OverflowError("an entry exceeds the int64 range")
        arr = arr.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be integer indices: {exc}") from exc
    if arr.ndim != 1:
        raise ShapeMismatchError(f"{name} must be a 1-d index sequence, got shape {arr.shape}")
    return arr


def write_container(path, header, magic: bytes, fields, blocks) -> None:
    """Write header.pack(magic, *fields), then each (dtype, array) block row-major."""
    with open(path, "wb") as fh:
        fh.write(header.pack(magic, *fields))
        for dtype, block in blocks:
            fh.write(block.astype(dtype).tobytes())


def read_container(path, what: str, header, magic: bytes, layout, build):
    """Read a container file written by write_container and build its value.

    layout(*fields) gives the (dtype, shape) of each block from the header
    fields after the magic, and may itself raise FormatError for a field it
    rejects. build(*fields, *blocks) gets the blocks as read-only views of
    the file; a ConfigError it raises becomes FormatError, its __cause__.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < header.size:
        raise FormatError(f"{what} file too short for header")
    found, *fields = header.unpack_from(data)
    if found != magic:
        raise FormatError(f"bad {what} magic {found!r}")
    shapes = layout(*fields)
    expected = header.size + sum(np.dtype(dt).itemsize * math.prod(shape) for dt, shape in shapes)
    if len(data) != expected:
        raise FormatError(f"{what} file length {len(data)} != expected {expected}")
    blocks, pos = [], header.size
    for dtype, shape in shapes:
        blocks.append(np.frombuffer(data, dtype, math.prod(shape), pos).reshape(shape))
        pos += blocks[-1].nbytes
    try:
        return build(*fields, *blocks)
    except ConfigError as exc:
        raise FormatError(f"{what} file holds an invalid value: {exc}") from exc


def ascii_lines(path):
    """Yield (line number, text) for each line of path, counted from 1.

    Lines break at LF, CRLF or a lone CR (bytes.splitlines). A non-ASCII
    byte raises FormatError naming path:line and the byte's column.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}:{lineno}: non-ASCII byte {raw[exc.start]:#04x} at column {exc.start + 1}"
            ) from None
        yield lineno, text
