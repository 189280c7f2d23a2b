import dataclasses
import struct

import numpy as np
import pytest

from dsc_codec import ConfigError, Mask, Message, MessageParseError
from dsc_codec.rans import RANS_L
from dsc_codec.wire import pack_mask, unpack_mask


def make_message(n_height=4, n_width=6, k=8, with_payload=True) -> Message:
    rng = np.random.default_rng(0)
    bits = rng.random((n_height, n_width)) < 0.5
    if not with_payload:
        bits[:] = False
    mask = Mask(bits)
    n = mask.count()
    freqs = np.zeros(k, dtype=np.int64)
    if n > 0:
        freqs[:] = (1 << 12) // k
    return Message(
        channels=3,
        embed_dim=5,
        precision=12,
        codebook_hash=0x0123456789ABCDEF,
        mask=mask,
        freqs=freqs,
        payload=b"\xde\xad\xbe\xef" if n > 0 else b"",
        final_state=RANS_L + 17 if n > 0 else RANS_L,
    )


def independent_parse(data: bytes) -> dict:
    """Standalone walk of the documented layout; shares no code with wire.py."""
    pos = 0
    magic = data[pos : pos + 4]
    pos += 4
    version, flags = data[pos], data[pos + 1]
    pos += 2
    c, h, w, d, k = struct.unpack_from("<HHHHH", data, pos)
    pos += 10
    p = data[pos]
    pos += 1
    (cb_hash,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    (mask_len,) = struct.unpack_from("<I", data, pos)
    pos += 4
    mask_bytes = data[pos : pos + mask_len]
    pos += mask_len
    (n,) = struct.unpack_from("<I", data, pos)
    pos += 4
    freqs = struct.unpack_from(f"<{k}H", data, pos)
    pos += 2 * k
    (payload_len,) = struct.unpack_from("<I", data, pos)
    pos += 4
    payload = data[pos : pos + payload_len]
    pos += payload_len
    (state,) = struct.unpack_from("<I", data, pos)
    pos += 4
    assert pos == len(data), "independent parser found trailing bytes"
    return {
        "magic": magic,
        "version": version,
        "flags": flags,
        "dims": (c, h, w, d, k, p),
        "cb_hash": cb_hash,
        "mask_bytes": mask_bytes,
        "n": n,
        "freqs": freqs,
        "payload": payload,
        "state": state,
        "total": pos,
    }


def test_mask_packing_roundtrip():
    rng = np.random.default_rng(1)
    for h, w in [(1, 1), (3, 5), (8, 8), (7, 13)]:
        mask = Mask(rng.random((h, w)) < 0.4)
        packed = pack_mask(mask)
        assert len(packed) == (h * w + 7) // 8
        assert np.array_equal(unpack_mask(packed, h, w).bits, mask.bits)


def test_mask_bits_are_lsb_first():
    bits = np.zeros((1, 8), dtype=bool)
    bits[0, 0] = True  # first row-major bit -> least significant bit
    assert pack_mask(Mask(bits)) == b"\x01"
    bits[0, 0], bits[0, 7] = False, True
    assert pack_mask(Mask(bits)) == b"\x80"


def test_message_roundtrip_bit_exact():
    msg = make_message()
    data = msg.to_bytes()
    again = Message.from_bytes(data)
    assert again.to_bytes() == data
    assert np.array_equal(again.mask.bits, msg.mask.bits)
    assert again.freqs.tolist() == msg.freqs.tolist()
    assert again.payload == msg.payload
    assert again.final_state == msg.final_state


def test_independent_parser_agrees_on_every_section():
    msg = make_message()
    data = msg.to_bytes()
    parsed = independent_parse(data)
    assert parsed["magic"] == b"DSC1"
    assert parsed["version"] == 1
    assert parsed["dims"] == (3, 4, 6, 5, 8, 12)
    assert parsed["cb_hash"] == msg.codebook_hash
    assert parsed["n"] == msg.num_symbols
    assert list(parsed["freqs"]) == msg.freqs.tolist()
    assert parsed["payload"] == msg.payload
    assert parsed["state"] == msg.final_state
    assert parsed["total"] == len(data)


def test_zero_symbol_message_is_valid():
    msg = make_message(with_payload=False)
    assert msg.num_symbols == 0
    again = Message.from_bytes(msg.to_bytes())
    assert again.num_symbols == 0
    assert again.payload == b""
    assert again.final_state == RANS_L


def test_parse_rejects_bad_magic_and_version():
    data = bytearray(make_message().to_bytes())
    data[0] = ord(b"X")
    with pytest.raises(MessageParseError):
        Message.from_bytes(bytes(data))
    data = bytearray(make_message().to_bytes())
    data[4] = 99
    with pytest.raises(MessageParseError):
        Message.from_bytes(bytes(data))


def _zero_symbol_bytes(k: int, flags: int, payload: bytes = b"") -> bytes:
    """A zero-symbol 2x3 message laid out field by field, with a K-entry table."""
    return b"".join(
        [
            b"DSC1",
            struct.pack("<BB", 1, flags),  # version, flags
            struct.pack("<HHHHH", 3, 2, 3, 5, k),  # C, H, W, D, K
            struct.pack("<B", 12),  # precision
            struct.pack("<Q", 0x0123456789ABCDEF),  # codebook hash
            struct.pack("<I", 1) + b"\x00",  # mask length, 6 clear bits
            struct.pack("<I", 0),  # N
            bytes(2 * k),  # all-zero frequency table
            struct.pack("<I", len(payload)) + payload,  # payload length, payload
            struct.pack("<I", RANS_L),  # initial coder state
        ]
    )


def test_parse_rejects_header_with_empty_codebook():
    assert Message.from_bytes(_zero_symbol_bytes(k=2, flags=0)).num_symbols == 0
    with pytest.raises(MessageParseError, match="codebook size must be >= 1"):
        Message.from_bytes(_zero_symbol_bytes(k=0, flags=0))


@pytest.mark.parametrize("offset", [8, 10])
def test_parse_rejects_header_with_an_empty_mask_dimension(offset):
    # H and W are the u16 fields at bytes 8 and 10 of the fixed header.
    data = bytearray(_zero_symbol_bytes(k=2, flags=0))
    data[offset : offset + 2] = struct.pack("<H", 0)
    with pytest.raises(MessageParseError, match="mask dimensions must be >= 1"):
        Message.from_bytes(bytes(data))


def test_parse_rejects_undefined_flags():
    data = _zero_symbol_bytes(k=2, flags=0)
    assert Message.from_bytes(data).to_bytes() == data
    for flags in (0x01, 0x80):
        with pytest.raises(MessageParseError, match="flag"):
            Message.from_bytes(_zero_symbol_bytes(k=2, flags=flags))


def test_parse_rejects_zero_symbol_message_with_a_payload():
    assert Message.from_bytes(_zero_symbol_bytes(k=2, flags=0)).payload == b""
    with pytest.raises(MessageParseError, match="empty payload"):
        Message.from_bytes(_zero_symbol_bytes(k=2, flags=0, payload=b"\x01\x02\x03"))


def test_parse_rejects_truncation_at_every_boundary():
    data = make_message().to_bytes()
    for cut in (3, 10, 24, 28, 30, len(data) - 5, len(data) - 1):
        with pytest.raises(MessageParseError):
            Message.from_bytes(data[:cut])


def test_parse_rejects_trailing_bytes():
    data = make_message().to_bytes()
    with pytest.raises(MessageParseError):
        Message.from_bytes(data + b"\x00")


def test_parse_rejects_inconsistent_table():
    msg = make_message()
    data = bytearray(msg.to_bytes())
    # Frequencies start right after header(25) + mask_len(4) + mask + N(4).
    offset = 25 + 4 + len(pack_mask(msg.mask)) + 4
    data[offset : offset + 2] = struct.pack("<H", 1)  # break the sum-to-2^p rule
    with pytest.raises(MessageParseError):
        Message.from_bytes(bytes(data))


@pytest.mark.parametrize("delta", [-1, 1])
def test_parse_rejects_symbol_count_other_than_mask_population(delta):
    msg = make_message()
    data = bytearray(msg.to_bytes())
    # N sits right after header(25) + mask_len(4) + mask.
    offset = 25 + 4 + len(pack_mask(msg.mask))
    data[offset : offset + 4] = struct.pack("<I", msg.mask.count() + delta)
    with pytest.raises(MessageParseError, match="mask population"):
        Message.from_bytes(bytes(data))


# One value past each end of every integer header/length field, plus a float,
# as (field, value, name in the error). H and W are the mask's shape, so
# only their upper ends can be expressed; K is the table's length, so its
# ends are an empty and a 0x10000-entry table.
_OUT_OF_RANGE = [
    *[(name, value, name) for name in ("channels", "embed_dim") for value in (-1, 0x10000, 2.5)],
    ("mask", Mask.zeros(0x10000, 1), "height"),
    ("mask", Mask.zeros(1, 0x10000), "width"),
    ("freqs", np.zeros(0, dtype=np.int64), "codebook size"),
    ("freqs", np.zeros(0x10000, dtype=np.int64), "codebook size"),
    ("precision", 12.0, "precision"),
    ("codebook_hash", -1, "codebook_hash"),
    ("codebook_hash", 2**64, "codebook_hash"),
    ("final_state", -1, "final_state"),
    ("final_state", 2**32, "final_state"),
]


@pytest.mark.parametrize("name, value, error", _OUT_OF_RANGE)
def test_message_rejects_header_values_that_do_not_fit_their_field(name, value, error):
    msg = make_message()
    with pytest.raises(ConfigError, match=error):
        dataclasses.replace(msg, **{name: value})


def test_message_rejects_payload_longer_than_its_u32_length_field():
    # A zero-stride view: 2^32 bytes long without allocating them.
    huge = memoryview(np.broadcast_to(np.uint8(0), (2**32,)))
    with pytest.raises(ConfigError, match="payload length"):
        dataclasses.replace(make_message(), payload=huge)


def test_message_accepts_field_extremes_and_numpy_integers():
    msg = dataclasses.replace(
        make_message(),
        channels=np.uint16(0xFFFF),
        embed_dim=0,
        codebook_hash=2**64 - 1,
        final_state=np.int64(2**32 - 1),
    )
    again = Message.from_bytes(msg.to_bytes())
    assert (again.channels, again.embed_dim) == (0xFFFF, 0)
    assert (again.codebook_hash, again.final_state) == (2**64 - 1, 2**32 - 1)
