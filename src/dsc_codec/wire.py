"""Byte-exact wire format for coded feature messages.

Layout, all little-endian, nothing uncounted:

    "DSC1" (4B) | version u8 | flags u8 | C u16 | H u16 | W u16 | D u16 |
    K u16 | p u8 | codebook version hash u64 |
    mask length u32 | mask bytes (row-major bits, LSB-first per byte) |
    N u32 | K x u16 frequencies |
    payload length u32 | payload bytes | final coder state u32

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
it, and keeps that as `table` (None when N = 0). Parsing is strict: any
trailing or missing bytes, a bad magic, version or flags byte, an N other
than the parsed mask's population, or an inconsistent table raises
MessageParseError rather than returning garbage. Constructing a Message
checks that every header and length field fits its field, so to_bytes
never fails on a constructed message.
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
        require_int("precision", self.precision, MIN_PRECISION, MAX_MESSAGE_PRECISION)
        require_int("codebook_hash", self.codebook_hash, 0, 2**64 - 1)
        require_int("payload length", len(self.payload), 0, _U32_MAX)
        require_int("final_state", self.final_state, 0, _U32_MAX)
        arr = np.array(self.freqs, dtype=np.int64, order="C")
        if arr.ndim != 1 or not 1 <= arr.size <= _U16_MAX:
            raise ConfigError(f"codebook size must be >= 1 and <= {_U16_MAX}, got {arr.shape}")
        # At most 0xFFFF^2 < 2^32 cells, so N always fits its u32 field.
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
        mask_bytes = pack_mask(self.mask)
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
        view = memoryview(data)
        pos = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal pos
            if pos + n > len(view):
                raise MessageParseError(f"message truncated while reading {what}")
            chunk = view[pos : pos + n]
            pos += n
            return chunk

        magic, version, flags, c, h, w, d, k, p, cb_hash = _FIXED_HEADER.unpack(
            take(_FIXED_HEADER.size, "header")
        )
        if magic != MESSAGE_MAGIC:
            raise MessageParseError(f"bad message magic {bytes(magic)!r}")
        if version != MESSAGE_VERSION:
            raise MessageParseError(f"unsupported message version {version}")
        if flags != 0:
            raise MessageParseError(f"no message flag is defined, got flags {flags:#04x}")
        (mask_len,) = _U32.unpack(take(4, "mask length"))
        mask = unpack_mask(bytes(take(mask_len, "mask")), h, w)
        (n,) = _U32.unpack(take(4, "symbol count"))
        if n != mask.count():
            raise MessageParseError(f"symbol count {n} != mask population {mask.count()}")
        freqs = np.frombuffer(take(2 * k, "frequency table"), dtype="<u2").astype(np.int64)
        (payload_len,) = _U32.unpack(take(4, "payload length"))
        payload = bytes(take(payload_len, "payload"))
        (state,) = _U32.unpack(take(4, "final state"))
        if pos != len(view):
            raise MessageParseError(f"{len(view) - pos} trailing bytes after message")
        try:
            return cls(
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
