"""Per-section byte counts of a serialized message, read from its bytes.

This parses the documented wire layout (version 1) independently of
``dsc_codec.wire``, so the benchmark can check that a message's length is
exactly the sum of its sections:

    header  "DSC1" | version u8 | flags u8 | C,H,W,D,K u16 | p u8 | hash u64,
            plus the mask-length, symbol-count and payload-length u32 fields
    mask    the packed mask bits
    table   K x u16 frequencies
    payload the rANS payload
    state   the final coder state u32
"""

from __future__ import annotations

import struct

_FIXED = struct.Struct("<4sBBHHHHHBQ")
_U32 = struct.Struct("<I")
SECTIONS = ("header", "mask", "table", "payload", "state")


def message_sections(data: bytes) -> dict[str, int]:
    """Byte count of each section; raises ValueError if the bytes are too short."""
    if len(data) < _FIXED.size:
        raise ValueError("message shorter than its fixed header")
    k = _FIXED.unpack_from(data, 0)[7]
    pos = _FIXED.size
    (mask_len,) = _read_u32(data, pos)
    pos += 4 + mask_len
    pos += 4  # symbol count
    table_len = 2 * k
    pos += table_len
    (payload_len,) = _read_u32(data, pos)
    return {
        "header": _FIXED.size + 3 * _U32.size,
        "mask": mask_len,
        "table": table_len,
        "payload": payload_len,
        "state": _U32.size,
    }


def _read_u32(data: bytes, pos: int) -> tuple[int]:
    if pos + _U32.size > len(data):
        raise ValueError(f"message truncated at byte {pos}")
    return _U32.unpack_from(data, pos)
