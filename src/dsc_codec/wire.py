"""Byte-exact wire format for coded feature messages.

Layout, all little-endian, nothing uncounted:

    "DSC1" (4B) | version u8 | flags u8 | C u16 | H u16 | W u16 | D u16 |
    K u16 | p u8 | codebook version hash u64 |
    mask length u32 | mask section |
    N u32 | K x u16 frequencies |
    payload length u32 | payload bytes | final coder state u32

The mask section has two forms, told apart by its length:

  * packed bits: the row-major mask bits, LSB-first per byte,
    ceil(H*W/8) bytes;
  * run form: first u8 | k0 u8 | k1 u8 | R u32, then a bit stream,
    LSB-first and zero-padded to a byte. `first` is the first run's value
    and R the number of runs (maximal stretches of equal row-major bits,
    so their values alternate). A run of length v is (q << k) + r + 1, with
    k = k0 for a 0-run and k1 for a 1-run. The stream holds every run's
    unary quotient (q zeros, then a one) in run order, then the 0-runs'
    k0-bit remainders, then the 1-runs' k1-bit remainders, each remainder
    least significant bit first. Each k is the lowest k in 0..31 that
    minimizes its group's bits.

The encoder writes the run form exactly when fewer than half the cells are
kept and the run form is shorter than the packed bits; otherwise it writes
the packed bits. Dense masks stay packed because pruning a few cells of a
nearly full mask splits its runs: with the shorter form always sent, the
mean message grew as the pruning threshold rose. The rule keeps the mean
message shrinking as the threshold rises at the seeds measured, but it is
no guarantee: in a sparse mask, pruning one cell inside a kept run adds
two runs, which can cost more mask bits than the one symbol saves, so a
single pruned cell can lengthen the message. Run lengths are Golomb-Rice
codes (Golomb, IEEE T-IT 1966).

The reported rate of a message is the total serialized length in bytes.
Frequencies are the quantized counts summing to 2^p with p in [8, 15], so
every frequency, up to 2^p for a single-symbol map, fits its u16 field (the
coder itself admits p = 16); the encoder writes p = 12, or the smallest p
that holds every distinct codeword. K is at least 1. A zero-symbol message
(N = 0) carries an all-zero table, an empty payload, and the initial coder
state. The version byte is MESSAGE_VERSION and the flags byte is 0: no flag
is defined yet. A Message stores no H, W, K or N: they are its mask's
shape, its table's length and its mask's population. A message with
symbols checks its table by building the rans.FrequencyTable that decodes
it, and keeps that as `table` (None when N = 0). Constructing a Message
checks that every header and length field fits its field and that the mask
has at most MAX_CELLS cells, so to_bytes never fails on a constructed
message and never writes one that from_bytes rejects for its grid.

Parsing has one rule: Message.from_bytes(d) accepts d exactly when the
message it parses serializes back to d, so from_bytes(d).to_bytes() == d for
every accepted d, and every other d raises MessageParseError naming the first
section that differs. Before that comparison the parser keeps only the
guards that keep parsing safe, each raising MessageParseError: the
truncation of every section; the magic, version and flags bytes, checked
first so that a foreign or future message is rejected before its H*W sizes
a mask; H*W at most MAX_CELLS = 2^20, checked next, so the mask, the symbol
count and the receiver's decode stay bounded by the cap whatever the header
claims; mask dimensions of at least 1 and the packed section's length; the
run form's own guards (see _parse_run_form); and the Message's field and
table checks. A mask section in a form other than the encoder's, an N other
than the mask's population or trailing bytes all fail the comparison.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FrequencyTableError, MessageParseError, require_int
from .features import Mask
from .rans import MIN_PRECISION, RANS_L, FrequencyTable

MESSAGE_MAGIC = b"DSC1"
MESSAGE_VERSION = 1
# Largest table precision the wire carries: a single-symbol table holds 2^p
# in one u16 frequency field.
MAX_MESSAGE_PRECISION = 15
# Largest mask grid, H * W, that a message may carry: 64 times the
# 128 x 128 acceptance grid. A parse sizes nothing by H * W before it checks
# this cap, so a few header bytes cannot claim a grid whose mask and
# symbols cost more than an honest message at the cap.
MAX_CELLS = 1 << 20

_FIXED_HEADER = struct.Struct("<4sBBHHHHHBQ")
_U32 = struct.Struct("<I")
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF


def pack_mask(mask: Mask) -> bytes:
    """Row-major mask bits packed LSB-first into ceil(H*W/8) bytes."""
    return np.packbits(mask.bits.ravel(), bitorder="little").tobytes()


def unpack_mask(data: bytes, height: int, width: int) -> Mask:
    if height < 1 or width < 1:
        raise MessageParseError(f"mask dimensions must be >= 1, got {height}x{width}")
    expected = (height * width + 7) // 8
    if len(data) != expected:
        raise MessageParseError(f"mask section is {len(data)} bytes, expected {expected}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=height * width, bitorder="little")
    return Mask(bits.astype(bool).reshape(height, width))


def encode_mask(mask: Mask) -> bytes:
    """The mask section: the run form when the rule picks it, else packed bits."""
    cells = mask.height * mask.width
    if 2 * mask.count() < cells:
        runs = _run_form(mask.bits.ravel(), (cells + 7) // 8)
        if runs is not None:
            return runs
    return pack_mask(mask)


def decode_mask(data: bytes, height: int, width: int) -> Mask:
    """The mask of either form of the mask section, parsed safely.

    A section of ceil(H*W/8) bytes is packed bits, any other is the run form.
    Either may decode from bytes the encoder would not write for that mask
    (padding bits, spare bytes, another k, the other form); Message.from_bytes
    rejects those by serializing the parsed message again.
    """
    if height < 1 or width < 1:
        raise MessageParseError(f"mask dimensions must be >= 1, got {height}x{width}")
    if len(data) == (height * width + 7) // 8:
        return unpack_mask(data, height, width)
    return Mask(_parse_run_form(data, height * width).reshape(height, width))


_RUN_HEADER = struct.Struct("<BBBI")  # first, k0, k1, R
_MAX_RICE_K = 31


def _rice_parameters(m: np.ndarray, ones: np.ndarray) -> tuple[list[int], int]:
    """Each run group's lowest best k, and the bit stream's length.

    m holds each run's length minus one and ones marks the 1-runs. Past the
    bit length of a group's longest run every quotient is 0 and each k
    costs one more bit per run, so no larger k needs trying.
    """
    ks, total = [], 0
    for group in (m[~ones], m[ones]):
        top = min(int(group.max()).bit_length(), _MAX_RICE_K) if group.size else 0
        k = np.arange(top + 1)
        bits = (group[:, np.newaxis] >> k).sum(axis=0) + group.size * (k + 1)
        best = int(np.argmin(bits))
        ks.append(best)
        total += int(bits[best])
    return ks, total


def _run_flags(first: int, count: int) -> np.ndarray:
    """True at the 1-runs of `count` alternating runs starting with `first`."""
    ones = np.zeros(count, dtype=bool)
    ones[1 - first :: 2] = True
    return ones


def _run_form(flat: np.ndarray, limit: int) -> bytes | None:
    """The run-form section of the flat mask, or None unless shorter than limit bytes."""
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    m = np.diff(np.concatenate(([0], edges, [flat.size]))) - 1
    first = int(flat[0])
    ones = _run_flags(first, m.size)
    ks, total = _rice_parameters(m, ones)
    if _RUN_HEADER.size + (total + 7) // 8 >= limit:
        return None
    q = m >> np.where(ones, ks[1], ks[0])
    bits = np.zeros(total, dtype=np.uint8)
    bits[np.cumsum(q + 1) - 1] = 1
    pos = int(q.sum()) + m.size
    for group, k in ((~ones, ks[0]), (ones, ks[1])):
        block = (m[group, np.newaxis] >> np.arange(k)) & 1
        bits[pos : pos + block.size] = block.ravel()
        pos += block.size
    header = _RUN_HEADER.pack(first, ks[0], ks[1], m.size)
    return header + np.packbits(bits, bitorder="little").tobytes()


def _parse_run_form(data: bytes, cells: int) -> np.ndarray:
    """The flat mask bits of a run-form section.

    Only the guards that keep the parse safe are checked; each one stops
    another exception or an allocation the input does not pay for:
      * the section holds the 7-byte run header (else struct.error);
      * k0, k1 <= 31, so every shift and remainder fits an int64 (a wider
        remainder can wrap to a negative run length, a ValueError in
        np.repeat);
      * 1 <= R <= min(H*W, stream bits) before the R-entry arrays are
        allocated (R = 0 has no last quotient, and a u32 R asks for up to
        4 GB);
      * the stream holds R quotients and every remainder (else arrays of
        mismatched shape);
      * each quotient keeps its run inside H*W, so (q << k) cannot overflow
        (it could once the stream holds 2^32 bits); with k <= 31 every run
        length is then non-negative and their sum cannot wrap a uint64;
      * run lengths that sum to H*W (else the mask has the wrong size).
    A first value other than 0 or 1, spare bytes, nonzero padding or a k
    the encoder would not pick parse here and fail Message.from_bytes's
    round trip.
    """
    if len(data) < _RUN_HEADER.size:
        raise MessageParseError(f"run-form mask section of {len(data)} bytes lacks its header")
    first, k0, k1, count = _RUN_HEADER.unpack_from(data)
    nbits = 8 * (len(data) - _RUN_HEADER.size)
    if max(k0, k1) > _MAX_RICE_K:
        raise MessageParseError(f"Rice parameters must be <= {_MAX_RICE_K}, got {k0} and {k1}")
    if not 1 <= count <= min(cells, nbits):
        raise MessageParseError(f"run count {count} outside [1, {min(cells, nbits)}]")
    stream = np.frombuffer(data, dtype=np.uint8, offset=_RUN_HEADER.size)
    bits = np.unpackbits(stream, bitorder="little")
    stops = np.flatnonzero(bits)[:count]
    if stops.size < count:
        raise MessageParseError(f"run-form stream ends after {stops.size} of {count} quotients")
    ones = _run_flags(first, count)
    k = np.where(ones, k1, k0)
    q = np.diff(stops, prepend=-1) - 1
    if (q > (cells - 1) >> k).any():
        raise MessageParseError("a run is longer than the mask")
    pos = int(stops[-1]) + 1
    r = np.empty(count, dtype=np.int64)
    for group, width in ((~ones, k0), (ones, k1)):
        n = int(np.count_nonzero(group))
        if pos + n * width > nbits:
            raise MessageParseError("run-form stream ends inside its remainders")
        block = bits[pos : pos + n * width].reshape(n, width)
        r[group] = block @ (1 << np.arange(width, dtype=np.int64))
        pos += n * width
    m = (q << k) + r
    if int(m.sum(dtype=np.uint64)) + count != cells:
        raise MessageParseError(f"run lengths do not sum to the mask's {cells} cells")
    return np.repeat(ones, m + 1)


@dataclass(frozen=True, eq=False)
class Message:
    """A complete per-link bitstream: header, mask, table, payload, state."""

    channels: int
    embed_dim: int
    precision: int
    codebook_hash: int
    mask: Mask
    freqs: np.ndarray
    payload: bytes
    final_state: int
    num_symbols: int = field(init=False)
    table: FrequencyTable | None = field(init=False)

    def __post_init__(self) -> None:
        for name in ("channels", "height", "width", "embed_dim"):
            require_int(name, getattr(self, name), 0, _U16_MAX)
        if self.height * self.width > MAX_CELLS:
            raise ConfigError(
                f"a {self.height}x{self.width} mask exceeds the wire's {MAX_CELLS} cells"
            )
        require_int("precision", self.precision, MIN_PRECISION, MAX_MESSAGE_PRECISION)
        require_int("codebook_hash", self.codebook_hash, 0, 2**64 - 1)
        require_int("payload length", len(self.payload), 0, _U32_MAX)
        require_int("final_state", self.final_state, 0, _U32_MAX)
        arr = np.array(self.freqs, dtype=np.int64, order="C")
        if arr.ndim != 1 or not 1 <= arr.size <= _U16_MAX:
            raise ConfigError(f"codebook size must be >= 1 and <= {_U16_MAX}, got {arr.shape}")
        # At most MAX_CELLS < 2^32 cells, so N always fits its u32 field.
        n = self.mask.count()
        # Non-negative and summing to 2^p <= 2^15, so each entry fits its u16 field.
        table = FrequencyTable(arr, self.precision) if n > 0 else None
        if n == 0 and (arr.any() or self.payload or self.final_state != RANS_L):
            raise ConfigError("N = 0 needs a zero table, an empty payload and the initial state")
        arr.flags.writeable = False
        object.__setattr__(self, "freqs", arr)
        object.__setattr__(self, "num_symbols", n)
        object.__setattr__(self, "table", table)

    @property
    def height(self) -> int:
        return self.mask.height

    @property
    def width(self) -> int:
        return self.mask.width

    @property
    def codebook_size(self) -> int:
        return self.freqs.size

    def to_bytes(self) -> bytes:
        mask_bytes = encode_mask(self.mask)
        parts = [
            _FIXED_HEADER.pack(
                MESSAGE_MAGIC,
                MESSAGE_VERSION,
                0,
                self.channels,
                self.height,
                self.width,
                self.embed_dim,
                self.codebook_size,
                self.precision,
                self.codebook_hash,
            ),
            _U32.pack(len(mask_bytes)),
            mask_bytes,
            _U32.pack(self.num_symbols),
            self.freqs.astype("<u2").tobytes(),
            _U32.pack(len(self.payload)),
            self.payload,
            _U32.pack(self.final_state),
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Message":
        """The message whose to_bytes() is exactly `data`.

        The fields are read behind the guards that keep parsing safe (see
        the module docstring), the Message is built, and it is accepted only
        if it serializes back to `data`; otherwise the error names the first
        section that differs, or the trailing bytes.
        """
        view = memoryview(data)
        sections: list[tuple[str, int]] = []  # (name, end offset) in read order

        def take(n: int, what: str) -> memoryview:
            pos = sections[-1][1] if sections else 0
            if pos + n > len(view):
                raise MessageParseError(f"message truncated while reading {what}")
            sections.append((what, pos + n))
            return view[pos : pos + n]

        magic, version, flags, c, h, w, d, k, p, cb_hash = _FIXED_HEADER.unpack(
            take(_FIXED_HEADER.size, "header")
        )
        if magic != MESSAGE_MAGIC:
            raise MessageParseError(f"bad message magic {bytes(magic)!r}")
        if version != MESSAGE_VERSION:
            raise MessageParseError(f"unsupported message version {version}")
        if flags != 0:
            raise MessageParseError(f"no message flag is defined, got flags {flags:#04x}")
        if h * w > MAX_CELLS:
            raise MessageParseError(f"a {h}x{w} mask exceeds the wire's {MAX_CELLS} cells")
        (mask_len,) = _U32.unpack(take(4, "mask section"))
        mask = decode_mask(bytes(take(mask_len, "mask section")), h, w)
        take(4, "symbol count")  # N is the mask's population; the round trip checks it
        freqs = np.frombuffer(take(2 * k, "frequency table"), dtype="<u2").astype(np.int64)
        (payload_len,) = _U32.unpack(take(4, "payload length"))
        payload = bytes(take(payload_len, "payload"))
        (state,) = _U32.unpack(take(4, "final state"))
        try:
            msg = cls(
                channels=c,
                embed_dim=d,
                precision=p,
                codebook_hash=cb_hash,
                mask=mask,
                freqs=freqs,
                payload=payload,
                final_state=state,
            )
        except (ConfigError, FrequencyTableError) as exc:
            raise MessageParseError(str(exc)) from exc
        out = msg.to_bytes()
        if out == data:
            return msg
        start = 0
        for what, stop in sections:
            if out[start:stop] != view[start:stop]:
                raise MessageParseError(f"{what} is not the form the encoder writes")
            start = stop
        raise MessageParseError(f"{len(view) - start} trailing bytes after message")
