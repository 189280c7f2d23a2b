"""Streaming range asymmetric numeral systems coder over quantized tables.

Construction (fixed, so streams are bit-exact across implementations):

  * 32-bit coder state confined to [L, 256*L) with L = 2^23,
  * byte-wise renormalization emitting least-significant bytes,
  * symbols are consumed in reverse order while encoding, so decoding walks
    the sequence forward; the emitted bytes are stored reversed, so the
    decoder also reads the payload forward,
  * frequencies are integers summing to exactly 2^p with p in [8, 16].

A symbol s with frequency f[s] and cumulative start c[s] updates the state

    x -> ((x // f[s]) << p) + (x % f[s]) + c[s]

after renormalizing x below ((L >> p) << 8) * f[s]. Decoding inverts every
step exactly; after the last symbol the state must land back on the initial
L, which doubles as a cheap integrity check. Truncated payloads, leftover
bytes, and a bad final state all raise explicit decode errors - corruption
is never allowed to turn into silent garbage symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DecodeError, FrequencyTableError, ShapeMismatchError, require_int

RANS_L = 1 << 23
MIN_PRECISION = 8
MAX_PRECISION = 16


@dataclass(frozen=True)
class FrequencyTable:
    """Quantized symbol frequencies summing to exactly 2^precision."""

    freqs: np.ndarray
    precision: int

    def __post_init__(self) -> None:
        arr = np.array(self.freqs, dtype=np.int64, order="C")
        if arr.ndim != 1 or arr.size < 1:
            raise FrequencyTableError("frequency table must be a non-empty 1-d array")
        require_int("precision", self.precision, MIN_PRECISION, MAX_PRECISION)
        if arr.min() < 0:
            raise FrequencyTableError("frequencies must be non-negative")
        if int(arr.sum()) != 1 << self.precision:
            raise FrequencyTableError(
                f"frequencies must sum to 2^{self.precision}, got {int(arr.sum())}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "freqs", arr)
        cum = np.zeros(arr.size + 1, dtype=np.int64)
        np.cumsum(arr, out=cum[1:])
        cum.flags.writeable = False
        object.__setattr__(self, "_cum", cum)

    @property
    def num_symbols(self) -> int:
        return self.freqs.size

    @property
    def cumulative(self) -> np.ndarray:
        """K+1 cumulative starts: cum[k+1] = cum[k] + freq[k]."""
        return self._cum


def build_freq_table(idx, num_symbols: int, precision: int = 12) -> FrequencyTable:
    """Scale raw counts to sum 2^precision, flooring occurring symbols at 1.

    Largest-remainder rounding restores the exact sum deterministically
    (ties broken toward the lower symbol index).
    """
    symbols = np.asarray(idx, dtype=np.int64)
    if symbols.ndim != 1:
        raise ShapeMismatchError("index map must be 1-d")
    if symbols.size < 1:
        raise ConfigError("cannot build a frequency table from an empty index map")
    require_int("num_symbols", num_symbols, 1)
    require_int("precision", precision, MIN_PRECISION, MAX_PRECISION)
    if symbols.min() < 0 or symbols.max() >= num_symbols:
        raise ConfigError(f"symbols must lie in [0,{num_symbols})")

    counts = np.bincount(symbols, minlength=num_symbols).astype(np.int64)
    total = int(counts.sum())
    target = 1 << precision
    occurring = counts > 0
    if int(occurring.sum()) > target:
        raise FrequencyTableError(
            f"{int(occurring.sum())} distinct symbols cannot share 2^{precision} slots"
        )

    scaled_num = counts * target
    freqs = scaled_num // total
    remainders = scaled_num % total
    deficit = target - int(freqs.sum())
    if deficit > 0:
        order = np.lexsort((np.arange(num_symbols), -remainders))
        freqs[order[:deficit]] += 1
    # Floor occurring symbols at 1, stealing from the currently largest entry.
    for k in np.flatnonzero(occurring & (freqs == 0)):
        donor = int(np.argmax(freqs))
        freqs[donor] -= 1
        freqs[k] = 1
    return FrequencyTable(freqs, precision)


def rans_encode(idx, ft: FrequencyTable) -> tuple[bytes, int]:
    """Encode the index sequence; returns (payload bytes, final coder state)."""
    symbols = np.asarray(idx, dtype=np.int64)
    if symbols.ndim != 1:
        raise ShapeMismatchError("index map must be 1-d")
    if symbols.size:
        if symbols.min() < 0 or symbols.max() >= ft.num_symbols:
            raise ConfigError(f"symbols must lie in [0,{ft.num_symbols})")
        if (ft.freqs[symbols] == 0).any():
            bad = int(symbols[np.flatnonzero(ft.freqs[symbols] == 0)[0]])
            raise FrequencyTableError(f"symbol {bad} has zero frequency")

    p = ft.precision
    freqs = ft.freqs.tolist()
    cum = ft.cumulative.tolist()
    bound = (RANS_L >> p) << 8
    limits = [bound * f for f in freqs]

    state = RANS_L
    out = bytearray()
    emit = out.append
    for s in reversed(symbols.tolist()):
        f = freqs[s]
        limit = limits[s]
        while state >= limit:
            emit(state & 0xFF)
            state >>= 8
        state = ((state // f) << p) + (state % f) + cum[s]
    out.reverse()
    return bytes(out), state


def rans_decode(payload: bytes, ft: FrequencyTable, n: int, state: int) -> np.ndarray:
    """Decode exactly n symbols; raises DecodeError on any inconsistency."""
    require_int("symbol count", n, 0)
    if not RANS_L <= state < (RANS_L << 8) and not (n == 0 and state == RANS_L):
        raise DecodeError(f"initial coder state {state:#x} outside the valid interval")
    if n == 0:
        if payload:
            raise DecodeError(f"{len(payload)} payload bytes left over for 0 symbols")
        if state != RANS_L:
            raise DecodeError("zero-symbol stream must carry the initial coder state")
        return np.empty(0, dtype=np.int32)

    p = ft.precision
    mask = (1 << p) - 1
    freqs = ft.freqs.tolist()
    cum = ft.cumulative.tolist()
    # Slot cf of the 2^p cumulative range belongs to symbol lookup[cf].
    lookup = np.repeat(np.arange(ft.num_symbols, dtype=np.int64), ft.freqs).tolist()
    out = np.empty(n, dtype=np.int32)
    pos = 0
    size = len(payload)
    for i in range(n):
        cf = state & mask
        s = lookup[cf]
        state = freqs[s] * (state >> p) + cf - cum[s]
        while state < RANS_L:
            if pos >= size:
                raise DecodeError(f"payload truncated at symbol {i} of {n}")
            state = (state << 8) | payload[pos]
            pos += 1
        out[i] = s
    if pos != size:
        raise DecodeError(f"{size - pos} unconsumed payload bytes after {n} symbols")
    if state != RANS_L:
        raise DecodeError("coder state did not return to the initial value; stream corrupt")
    return out
