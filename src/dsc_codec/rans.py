"""Streaming range asymmetric numeral systems coder over quantized tables.

Construction (fixed, so streams are bit-exact across implementations):

  * 32-bit coder state confined to [L, 256*L) with L = 2^23,
  * byte-wise renormalization emitting least-significant bytes,
  * symbols are consumed in reverse order while encoding, so decoding walks
    the sequence forward; the emitted bytes are stored reversed, so the
    decoder also reads the payload forward,
  * frequencies are integers summing to exactly 2^p with p in [8, 16];
    FrequencyTable alone checks this, and derives the lists the coders read
    once per table, on first use: per symbol, the encoder's frequency,
    cumulative start and renormalisation limit; per slot of 2^p, the
    decoder's symbol, that symbol's frequency and the slot's offset from
    the symbol's start.

A symbol s with frequency f[s] and cumulative start c[s] updates the state

    x -> ((x // f[s]) << p) + (x % f[s]) + c[s]

after renormalizing x below ((L >> p) << 8) * f[s]. Decoding inverts every
step exactly: the slot cf = x mod 2^p names s, and

    x -> f[s] * (x >> p) + (cf - c[s])

is followed by byte-wise refills up to L. Both terms are read per slot, so
the decode loop never looks up s; it records the slots of a band of
_DECODE_BAND symbols, and each band's symbols are one gather into the int32
result, so a decode holds 4 bytes per symbol and one band's records
whatever n is. A message short against its table (10 * n < 2^p)
finds s by bisecting the K+1 cumulative starts instead, so decoding it
builds no 2^p-entry list; both paths decode the same symbols and raise the
same errors at the same symbol. After the last symbol the state must land
back on the initial L, which doubles as a cheap integrity check. Truncated
payloads, leftover bytes, and a bad final state all raise explicit decode
errors - corruption is never allowed to turn into silent garbage symbols.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DecodeError, FrequencyTableError, index_array, require_int

RANS_L = 1 << 23
MIN_PRECISION = 8
MAX_PRECISION = 16
# rans_decode bisects the K+1 cumulative starts instead of building the
# table's 2^p-entry slot lists when n * _BISECT_RATIO < 2^p. Measured with
# the table build on a 2-core Xeon, bisecting wins below n = 2^p / 10 at
# p = 12, 2^p / 4 at p = 8 and 2^p / 2 at p = 15.
_BISECT_RATIO = 10
# rans_decode records this many slots (a list entry and an int each) before
# it gathers their symbols into its result.
_DECODE_BAND = 1 << 14


@dataclass(frozen=True, eq=False)
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

    @property
    def num_symbols(self) -> int:
        return self.freqs.size

    @cached_property
    def cumulative(self) -> np.ndarray:
        """K+1 cumulative starts: cum[k+1] = cum[k] + freq[k]."""
        cum = np.concatenate(([0], np.cumsum(self.freqs)))
        cum.flags.writeable = False
        return cum

    @cached_property
    def encoder_lists(self) -> tuple[list[int], list[int], list[int]]:
        """Per symbol: frequency, cumulative start and renormalisation limit."""
        bound = (RANS_L >> self.precision) << 8
        return self.freqs.tolist(), self.cumulative.tolist(), (bound * self.freqs).tolist()

    @cached_property
    def decoder_lists(self) -> tuple[np.ndarray, list[int], list[int]]:
        """Per slot of 2^p: its symbol, its symbol's frequency and slot - start.

        The symbols are a read-only int32 array, gathered once per decode;
        the other two are lists, read once per decoded symbol.
        """
        symbols = np.repeat(np.arange(self.num_symbols, dtype=np.int32), self.freqs)
        symbols.flags.writeable = False
        freq = np.repeat(self.freqs, self.freqs)
        starts = np.repeat(self.cumulative[:-1], self.freqs)
        return symbols, freq.tolist(), (np.arange(starts.size) - starts).tolist()


def build_freq_table(idx, num_symbols: int, precision: int = 12) -> FrequencyTable:
    """Scale raw counts to sum 2^precision, flooring occurring symbols at 1.

    Largest-remainder rounding restores the exact sum deterministically
    (ties broken toward the lower symbol index).
    """
    symbols = index_array("idx", idx)
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
    symbols = index_array("idx", idx)
    if symbols.size:
        if symbols.min() < 0 or symbols.max() >= ft.num_symbols:
            raise ConfigError(f"symbols must lie in [0,{ft.num_symbols})")
        if (ft.freqs[symbols] == 0).any():
            bad = int(symbols[np.flatnonzero(ft.freqs[symbols] == 0)[0]])
            raise FrequencyTableError(f"symbol {bad} has zero frequency")

    p = ft.precision
    freqs, cum, limits = ft.encoder_lists
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
    """Decode exactly n symbols; raises DecodeError on any inconsistency.

    The loop carries only the state and records each step's slot; the int32
    symbols are one gather of the table's slot symbols per _DECODE_BAND
    steps. A short message bisects the cumulative starts per symbol instead.
    """
    require_int("symbol count", n, 0)
    if not RANS_L <= state < (RANS_L << 8):
        raise DecodeError(f"initial coder state {state:#x} outside the valid interval")
    p = ft.precision
    mask = (1 << p) - 1
    lower = RANS_L
    pos = 0
    size = len(payload)
    if _BISECT_RATIO * n < 1 << p:
        # Short message: bisect the K+1 starts, with no 2^p-entry list.
        recorded = []
        record = recorded.append
        freqs, cum, _ = ft.encoder_lists
        for i in range(n):
            cf = state & mask
            s = bisect_right(cum, cf) - 1
            record(s)
            state = freqs[s] * (state >> p) + cf - cum[s]
            while state < lower:
                if pos >= size:
                    raise DecodeError(f"payload truncated at symbol {i} of {n}")
                state = (state << 8) | payload[pos]
                pos += 1
        out = np.fromiter(recorded, dtype=np.int32, count=n)
    else:
        out = np.empty(n, dtype=np.int32)
        symbols, freq, bias = ft.decoder_lists
        for start in range(0, n, _DECODE_BAND):
            stop = min(n, start + _DECODE_BAND)
            recorded = []
            record = recorded.append
            for i in range(start, stop):
                cf = state & mask
                record(cf)
                state = freq[cf] * (state >> p) + bias[cf]
                while state < lower:
                    if pos >= size:
                        raise DecodeError(f"payload truncated at symbol {i} of {n}")
                    state = (state << 8) | payload[pos]
                    pos += 1
            out[start:stop] = symbols[np.fromiter(recorded, dtype=np.intp, count=stop - start)]
    if pos != size:
        raise DecodeError(f"{size - pos} unconsumed payload bytes after {n} symbols")
    if state != RANS_L:
        raise DecodeError("coder state did not return to the initial value; stream corrupt")
    return out
