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
coder itself admits p = 16). K is at least 1. A zero-symbol message
(N = 0) carries an all-zero table, an empty payload, and the initial coder
state. The version byte is MESSAGE_VERSION and the flags byte is 0: no flag
is defined yet. Parsing is strict: any trailing or missing bytes, a bad
magic, version or flags byte, or an inconsistent table raises
MessageParseError rather than returning garbage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MessageParseError
from .features import Mask
from .rans import MIN_PRECISION, RANS_L

MESSAGE_MAGIC = b"DSC1"
MESSAGE_VERSION = 1
# Largest table precision the wire carries: a single-symbol table holds 2^p
# in one u16 frequency field.
MAX_MESSAGE_PRECISION = 15

_FIXED_HEADER = struct.Struct("<4sBBHHHHHBQ")
_U32 = struct.Struct("<I")


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


@dataclass(frozen=True)
class Message:
    """A complete per-link bitstream: header, mask, table, payload, state."""

    channels: int
    height: int
    width: int
    embed_dim: int
    codebook_size: int
    precision: int
    codebook_hash: int
    mask: Mask
    num_symbols: int
    freqs: np.ndarray
    payload: bytes
    final_state: int

    def __post_init__(self) -> None:
        if self.codebook_size < 1:
            raise ConfigError(f"codebook size must be >= 1, got {self.codebook_size}")
        if not MIN_PRECISION <= self.precision <= MAX_MESSAGE_PRECISION:
            raise ConfigError(f"precision {self.precision} out of range")
        arr = np.array(self.freqs, dtype=np.int64, order="C")
        if arr.ndim != 1 or arr.size != self.codebook_size:
            raise ConfigError(
                f"frequency table must have exactly K={self.codebook_size} entries"
            )
        if arr.min() < 0 or arr.max() > 0xFFFF:
            raise ConfigError("serialized frequencies must fit unsigned 16-bit fields")
        total = int(arr.sum())
        if self.num_symbols > 0 and total != 1 << self.precision:
            raise ConfigError(f"frequencies must sum to 2^{self.precision}, got {total}")
        if self.num_symbols == 0 and total != 0:
            raise ConfigError("zero-symbol messages must carry an all-zero table")
        if (self.mask.height, self.mask.width) != (self.height, self.width):
            raise ConfigError("mask dimensions must match the message header")
        if self.num_symbols != self.mask.count():
            raise ConfigError(
                f"symbol count {self.num_symbols} != mask population {self.mask.count()}"
            )
        if self.num_symbols == 0 and self.final_state != RANS_L:
            raise ConfigError("zero-symbol messages must carry the initial coder state")
        arr.flags.writeable = False
        object.__setattr__(self, "freqs", arr)

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
        freqs = np.frombuffer(take(2 * k, "frequency table"), dtype="<u2").astype(np.int64)
        (payload_len,) = _U32.unpack(take(4, "payload length"))
        payload = bytes(take(payload_len, "payload"))
        (state,) = _U32.unpack(take(4, "final state"))
        if pos != len(view):
            raise MessageParseError(f"{len(view) - pos} trailing bytes after message")
        try:
            return cls(
                channels=c,
                height=h,
                width=w,
                embed_dim=d,
                codebook_size=k,
                precision=p,
                codebook_hash=cb_hash,
                mask=mask,
                num_symbols=n,
                freqs=freqs,
                payload=payload,
                final_state=state,
            )
        except ConfigError as exc:
            raise MessageParseError(str(exc)) from exc
