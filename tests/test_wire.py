import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsc_codec import (
    CodecParams,
    Codebook,
    ConfigError,
    DecodeError,
    FeatureMap,
    Mask,
    Message,
    MessageParseError,
    decode_latents,
    encode_message,
)
from dsc_codec import wire
from dsc_codec.rans import RANS_L
from dsc_codec.wire import MAX_CELLS, decode_mask, encode_mask, pack_mask


def make_message(n_height=4, n_width=6, k=8, with_payload=True, bits=None) -> Message:
    if bits is None:
        bits = np.random.default_rng(0).random((n_height, n_width)) < 0.5
    if not with_payload:
        bits = np.zeros_like(bits)
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


def _bit(stream: bytes, i: int) -> int:
    """Bit i of an LSB-first bit stream."""
    return (stream[i // 8] >> (i % 8)) & 1


def _runs(bits: list[int]) -> list[int]:
    """Lengths of the maximal stretches of equal bits."""
    lengths = [1]
    for prev, cur in zip(bits, bits[1:]):
        if cur == prev:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def rice_stream(lengths: list[int], first: int, ks: tuple[int, int]) -> list[int]:
    """The run form's bit stream for these run lengths, before padding."""
    values = [first ^ (i % 2) for i in range(len(lengths))]
    stream = []
    for v, b in zip(lengths, values):
        stream += [0] * ((v - 1) >> ks[b]) + [1]
    for value in (0, 1):
        for v, b in zip(lengths, values):
            if b == value:
                stream += [((v - 1) >> j) & 1 for j in range(ks[value])]
    return stream


def run_section(first: int, k0: int, k1: int, count: int, stream: list[int]) -> bytes:
    """A run-form section from its header fields and its stream's bits."""
    stream = stream + [0] * (-len(stream) % 8)
    body = bytes(sum(stream[i + j] << j for j in range(8)) for i in range(0, len(stream), 8))
    return struct.pack("<BBBI", first, k0, k1, count) + body


def independent_run_form(bits: list[int]) -> bytes:
    """The documented run form of row-major mask bits, written bit by bit."""
    return run_form_of_runs(bits[0], _runs(bits))


def run_form_of_runs(first: int, lengths: list[int]) -> bytes:
    """The documented run form of runs of these lengths, the first of value first."""
    ks = []
    for value in (0, 1):
        group = [v - 1 for i, v in enumerate(lengths) if first ^ (i % 2) == value]
        cost = [sum((m >> k) + 1 + k for m in group) for k in range(32)]
        ks.append(cost.index(min(cost)))
    stream = rice_stream(lengths, first, tuple(ks))
    return run_section(first, ks[0], ks[1], len(lengths), stream)


def independent_mask_bits(section: bytes, cells: int) -> list[int]:
    """Row-major mask bits from either documented form of the mask section."""
    if len(section) == (cells + 7) // 8:
        return [_bit(section, i) for i in range(cells)]
    first, k0, k1, count = struct.unpack_from("<BBBI", section)
    stream = section[7:]
    pos = 0
    quotients = []
    for _ in range(count):
        q = 0
        while not _bit(stream, pos):
            q += 1
            pos += 1
        pos += 1
        quotients.append(q)
    values = [first ^ (i % 2) for i in range(count)]
    lengths = [0] * count
    for value, k in ((0, k0), (1, k1)):
        for i in range(count):
            if values[i] == value:
                r = sum(_bit(stream, pos + j) << j for j in range(k))
                pos += k
                lengths[i] = (quotients[i] << k) + r + 1
    assert (pos + 7) // 8 == len(stream), "independent parser found spare run-form bytes"
    assert all(_bit(stream, i) == 0 for i in range(pos, 8 * len(stream)))
    out = []
    for v, b in zip(lengths, values):
        out += [b] * v
    assert len(out) == cells
    return out


def with_mask_section(data: bytes, section: bytes) -> bytes:
    """A message's bytes with its mask length and mask section replaced."""
    (old,) = struct.unpack_from("<I", data, 25)  # the mask length follows the 25-byte header
    return data[:25] + struct.pack("<I", len(section)) + section + data[29 + old :]


def carrying(section: bytes, height: int, width: int) -> bytes:
    """A message whose mask section is `section`, with the symbol count,
    table and payload of the mask that section decodes to."""
    bits = decode_mask(section, height, width).bits
    msg = make_message(bits=bits, with_payload=bool(bits.any()))
    return with_mask_section(msg.to_bytes(), section)


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
        "mask_bits": independent_mask_bits(mask_bytes, h * w),
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
        assert np.array_equal(decode_mask(packed, h, w).bits, mask.bits)


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


def _blob_bits() -> np.ndarray:
    """A 32x32 mask keeping two rectangles, 272 of its 1024 cells."""
    bits = np.zeros((32, 32), dtype=bool)
    bits[3:11, 5:25] = True
    bits[20:30, 12:23] = True
    return bits


def test_independent_parser_agrees_on_every_section():
    # One message with packed mask bits, one with the run form.
    for msg, packed in ((make_message(), True), (make_message(bits=_blob_bits()), False)):
        data = msg.to_bytes()
        parsed = independent_parse(data)
        h, w = msg.mask.bits.shape
        assert (len(parsed["mask_bytes"]) == (h * w + 7) // 8) is packed
        assert parsed["mask_bits"] == msg.mask.bits.ravel().tolist()
        assert parsed["magic"] == b"DSC1"
        assert parsed["version"] == 1
        assert parsed["dims"] == (3, h, w, 5, 8, 12)
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
    with pytest.raises(MessageParseError, match="symbol count is not the form the encoder writes"):
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


# ------------------------------------------------------------ the mask section


@st.composite
def masks(draw) -> np.ndarray:
    """Random or blobby masks from 1x1 to 128x128 at any density."""
    h, w = draw(st.integers(1, 128)), draw(st.integers(1, 128))
    density = draw(st.floats(0.0, 1.0))
    block = draw(st.sampled_from([1, 2, 5, 16]))  # 1: cell-wise random
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = rng.random((-(-h // block), -(-w // block))) < density
    return np.kron(coarse, np.ones((block, block), dtype=bool))[:h, :w]


@given(masks())
@settings(max_examples=150, deadline=None)
def test_mask_section_follows_the_rule_and_roundtrips(bits):
    cells = bits.size
    flat = bits.ravel().tolist()
    packed = (cells + 7) // 8
    runs = independent_run_form(flat)
    sparse = 2 * sum(flat) < cells
    section = encode_mask(Mask(bits))
    if sparse and len(runs) < packed:
        assert section == runs
    else:
        assert section == pack_mask(Mask(bits))
    assert independent_mask_bits(section, cells) == flat
    assert np.array_equal(decode_mask(section, *bits.shape).bits, bits)
    msg = make_message(bits=bits, with_payload=bool(bits.any()))
    data = msg.to_bytes()
    again = Message.from_bytes(data)
    assert again.to_bytes() == data
    assert np.array_equal(again.mask.bits, bits)


def test_run_form_of_an_empty_and_a_split_mask():
    # One 0-run of 256 cells: 255 = (1 << 7) + 127 is cheapest at k0 = 7
    # (1 + 1 + 7 bits, tied with k0 = 8), and the empty 1-runs take k1 = 0.
    empty = np.zeros((16, 16), dtype=bool)
    assert encode_mask(Mask(empty)) == run_section(0, 7, 0, 1, [0, 1] + [1] * 7)
    # A 1-run of 100, then a 0-run of 156: 99 = (1 << 6) + 35 at k1 = 6 and
    # 155 = (2 << 6) + 27 at k0 = 6. Quotients in run order, then the 0-run's
    # remainder, then the 1-run's, each least significant bit first.
    split = np.zeros(256, dtype=bool)
    split[:100] = True
    stream = [0, 1] + [0, 0, 1] + [1, 1, 0, 1, 1, 0] + [1, 1, 0, 0, 0, 1]
    assert rice_stream([100, 156], 1, (6, 6)) == stream
    assert encode_mask(Mask(split.reshape(16, 16))) == run_section(1, 6, 6, 2, stream)


# The run-form stream of an empty 16x16 mask (9 bytes, against 32 packed).
_EMPTY = [0, 1] + [1] * 7


@pytest.mark.parametrize(
    "section, match",
    [
        (run_section(0, 7, 0, 0, _EMPTY), r"run count 0 outside \[1, 16\]"),
        (run_section(0, 0, 0, 257, [1] * 257), r"run count 257 outside \[1, 256\]"),
        (run_section(0, 32, 0, 1, [1]), "Rice parameters must be <= 31"),
        (run_section(0, 7, 32, 1, [1]), "Rice parameters must be <= 31"),
        (run_section(0, 7, 0, 1, [0] * 16), "ends after 0 of 1 quotients"),
        (run_section(0, 7, 0, 1, [0, 0, 1] + [1] * 7), "longer than the mask"),
        (run_section(0, 7, 0, 1, [0, 1] + [1] * 4), "ends inside its remainders"),
        (
            run_section(0, 7, 6, 2, rice_stream([200, 57], 0, (7, 6))),
            "do not sum to the mask's 256 cells",
        ),
        (struct.pack("<BBB", 0, 7, 0), "of 3 bytes lacks its header"),
    ],
)
def test_run_form_rejects_malformed_sections(section, match):
    assert decode_mask(run_section(0, 7, 0, 1, _EMPTY), 16, 16).count() == 0
    with pytest.raises(MessageParseError, match=match):
        decode_mask(section, 16, 16)


_NOT_THE_ENCODERS = "mask section is not the form the encoder writes"


@pytest.mark.parametrize(
    "section",
    [
        run_section(2, 0, 7, 1, _EMPTY),  # read as one 1-run: a full mask
        run_section(0, 7, 0, 1, _EMPTY + [0] * 5 + [1]),
        run_section(0, 7, 0, 1, _EMPTY) + b"\x00",
    ],
    ids=["first run value 2", "nonzero padding", "1 spare byte"],
)
def test_message_rejects_a_run_section_the_encoder_does_not_write(section):
    good = carrying(run_section(0, 7, 0, 1, _EMPTY), 16, 16)
    assert Message.from_bytes(good).to_bytes() == good
    with pytest.raises(MessageParseError, match=_NOT_THE_ENCODERS):
        Message.from_bytes(carrying(section, 16, 16))


def test_mask_section_rejects_any_form_but_the_encoders():
    full = Mask.ones(16, 16)
    empty = Mask.zeros(16, 16)
    # The run form of a mask keeping at least half its cells: one 1-run.
    runs_of_full = run_section(1, 0, 7, 1, _EMPTY)
    assert encode_mask(full) == pack_mask(full)
    assert independent_mask_bits(runs_of_full, 256) == [1] * 256
    # Packed bits of a mask whose run form is shorter.
    assert encode_mask(empty) != pack_mask(empty)
    # A run form with a k that is not the lowest best: k0 = 8 ties k0 = 7.
    tied_k = run_section(0, 8, 0, 1, [1] * 9)
    assert independent_mask_bits(tied_k, 256) == [0] * 256
    for section in (runs_of_full, pack_mask(empty), tied_k):
        with pytest.raises(MessageParseError, match=_NOT_THE_ENCODERS):
            Message.from_bytes(carrying(section, 16, 16))
    # A sparse mask whose run form (9 bytes) is not shorter than its 2 packed bytes.
    one_cell = [1] + [0] * 15
    assert encode_mask(Mask(np.array(one_cell, dtype=bool).reshape(4, 4))) == b"\x01\x00"
    with pytest.raises(MessageParseError, match=_NOT_THE_ENCODERS):
        Message.from_bytes(carrying(independent_run_form(one_cell), 4, 4))


def test_packed_section_rejects_nonzero_padding_bits():
    bits = np.zeros((3, 3), dtype=bool)
    bits[0] = bits[1] = True  # 6 of 9 kept: packed, 2 bytes, 7 padding bits
    section = encode_mask(Mask(bits))
    assert section == b"\x3f\x00"
    with pytest.raises(MessageParseError, match=_NOT_THE_ENCODERS):
        Message.from_bytes(carrying(b"\x3f\x80", 3, 3))


def test_message_with_a_non_canonical_mask_section_is_rejected():
    good = _zero_symbol_bytes(k=2, flags=0)
    assert Message.from_bytes(good).to_bytes() == good
    # The 2x3 empty mask's padding bits set.
    bad = good.replace(struct.pack("<I", 1) + b"\x00", struct.pack("<I", 1) + b"\xc0", 1)
    with pytest.raises(MessageParseError, match="not the form the encoder writes"):
        Message.from_bytes(bad)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_mask_section_round_trips_exactly_or_raises(data):
    # The one parse rule: whatever bytes stand in the mask section of a
    # valid message, from_bytes raises MessageParseError or returns a
    # message that serializes back to exactly those bytes.
    h, w = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((h, w)) < data.draw(st.floats(0.0, 1.0))
    clean = make_message(bits=bits, with_payload=bool(bits.any())).to_bytes()
    section = encode_mask(Mask(bits))
    kind = data.draw(st.sampled_from(["bytes", "flip", "runs", "other form"]))
    if kind == "bytes":
        new = data.draw(st.binary(max_size=2 * len(section) + 8))
    elif kind == "flip":
        new = bytearray(section)
        for bit in data.draw(st.lists(st.integers(0, 8 * len(new) - 1), min_size=1, max_size=3)):
            new[bit // 8] ^= 1 << (bit % 8)
        new = bytes(new)
    elif kind == "runs":  # any run header, then any stream
        fields = [data.draw(st.integers(0, top)) for top in (2, 33, 33, bits.size + 1)]
        new = struct.pack("<BBBI", *fields) + data.draw(st.binary(max_size=40))
    else:
        forms = [pack_mask(Mask(bits)), independent_run_form(bits.ravel().tolist())]
        new = data.draw(st.sampled_from(forms))
    corrupted = with_mask_section(clean, new)
    try:
        msg = Message.from_bytes(corrupted)
    except MessageParseError:
        return
    assert msg.to_bytes() == corrupted


# --------------------------------------------------------------------------
# The grid cap: a header cannot make the receiver size more than MAX_CELLS.


def _one_dim_codec(k: int) -> tuple[CodecParams, Codebook]:
    """A C = D = 1 codec whose K codewords are 0, 1, ..., K - 1."""
    cb = Codebook(np.arange(k, dtype=np.float64).reshape(k, 1))
    return CodecParams(np.ones((1, 1)), np.zeros(1), cb.version_hash), cb


def cheap_grid_bytes(
    height: int, width: int, first: int, lengths: list[int], cb: Codebook,
    freqs: list[int], payload: bytes = b"", state: int = RANS_L,
) -> bytes:
    """A C = D = 1 message whose run-form mask states an H x W grid in a few bytes."""
    section = run_form_of_runs(first, lengths)
    population = sum(v for i, v in enumerate(lengths) if first ^ (i % 2))
    return b"".join(
        [
            b"DSC1",
            struct.pack("<BB", 1, 0),
            struct.pack("<HHHHH", 1, height, width, 1, len(freqs)),
            struct.pack("<B", 12),  # precision
            struct.pack("<Q", cb.version_hash),
            struct.pack("<I", len(section)) + section,
            struct.pack("<I", min(population, 0xFFFFFFFF)),
            struct.pack(f"<{len(freqs)}H", *freqs),
            struct.pack("<I", len(payload)) + payload,
            struct.pack("<I", state),
        ]
    )


def _half_kept(cells: int) -> list[int]:
    """Runs of a mask whose first cells // 2 + 1 cells are clear and the rest set."""
    return [cells // 2 + 1, cells - cells // 2 - 1]


def test_parse_rejects_a_grid_over_the_cap_before_sizing_its_mask(monkeypatch):
    _, cb = _one_dim_codec(1)
    at_cap = cheap_grid_bytes(1024, 1024, 0, _half_kept(1024 * 1024), cb, [4096])
    assert 1024 * 1024 == MAX_CELLS
    msg = Message.from_bytes(at_cap)
    assert msg.to_bytes() == at_cap and msg.num_symbols == MAX_CELLS // 2 - 1
    sized = []
    original = wire.decode_mask
    monkeypatch.setattr(
        wire, "decode_mask", lambda *args: sized.append(args) or original(*args)
    )
    over = cheap_grid_bytes(1024, 1025, 0, _half_kept(1024 * 1025), cb, [4096])
    with pytest.raises(MessageParseError, match="exceeds the wire's 1048576 cells"):
        Message.from_bytes(over)
    assert sized == []
    # The largest grid the u16 fields allow is rejected just as early.
    with pytest.raises(MessageParseError, match="exceeds"):
        Message.from_bytes(cheap_grid_bytes(0xFFFF, 0xFFFF, 0, [0xFFFF**2], cb, [4096]))
    assert sized == []


def test_message_and_encoder_reject_a_grid_over_the_cap():
    with pytest.raises(ConfigError, match="exceeds the wire's"):
        Message(
            channels=1, embed_dim=1, precision=12, codebook_hash=0,
            mask=Mask(np.zeros((1024, 1025), dtype=bool)), freqs=[4096], payload=b"",
            final_state=RANS_L,
        )
    params, cb = _one_dim_codec(2)
    with pytest.raises(ConfigError, match="exceeds the wire's"):
        encode_message(
            FeatureMap.zeros(1, 1025, 1024), Mask(np.zeros((1025, 1024), dtype=bool)), params, cb
        )
    ok = encode_message(FeatureMap.zeros(1, 1024, 1024), Mask.ones(1024, 1024), params, cb)
    assert ok.num_symbols == MAX_CELLS


# Traced peak of a parse and decode of any cheap message: the cap bounds the
# mask, the symbols and their latents, whatever grid the header claims. The
# worst is a 1024 x 1024 grid with 2^19 - 1 coded cells (the run form is
# written only below half): its parse peaks at 3.0 MiB, and its decode holds
# the mask (1 MiB), the int32 symbols (2 MiB) and the float64 latents
# (4 MiB at D = 1) besides one band's indices, 7.5 MiB in all. A
# two-symbol table whose few hundred payload bytes decode every symbol
# records slots above 256, each a fresh int: a decoder that kept every
# slot until its end would peak at 20.5 MiB on it.
_CHEAP_PEAK = 8 << 20


def _every_symbol_decodes(cb: Codebook) -> bytes:
    """A 358-byte two-symbol message at the cap whose payload outlasts its 2^19 - 1 symbols."""
    payload = np.random.default_rng(0).integers(0, 256, 300).astype(np.uint8).tobytes()
    half = _half_kept(MAX_CELLS)
    return cheap_grid_bytes(1024, 1024, 0, half, cb, [4095, 1], payload, RANS_L + 12345)


@st.composite
def cheap_grids(draw):
    """(bytes, K) of a 1-3-run message with a one- or two-symbol table, any u16 grid."""
    h, w = draw(st.integers(1, 0xFFFF)), draw(st.integers(1, 0xFFFF))
    cells = h * w
    runs = draw(st.integers(1, min(3, cells)))
    cuts = []
    if runs > 1:
        inner = st.integers(1, cells - 1)
        cuts = sorted(draw(st.sets(inner, min_size=runs - 1, max_size=runs - 1)))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [cells])]
    first = draw(st.integers(0, 1))
    if draw(st.booleans()):
        freqs, payload, state = [4096], b"", RANS_L
    else:
        rare = draw(st.integers(1, 4095))
        freqs = [4096 - rare, rare]
        payload = draw(st.binary(max_size=512))
        state = draw(st.sampled_from([RANS_L, draw(st.integers(0, 0xFFFFFFFF))]))
    _, cb = _one_dim_codec(len(freqs))
    return cheap_grid_bytes(h, w, first, lengths, cb, freqs, payload, state), len(freqs)


@given(cheap_grids())
@example((cheap_grid_bytes(1024, 1024, 0, _half_kept(MAX_CELLS), _one_dim_codec(1)[1], [4096]), 1))
@example((_every_symbol_decodes(_one_dim_codec(2)[1]), 2))
@settings(max_examples=60, deadline=None)
def test_any_cheap_grid_parses_and_decodes_within_the_cap(case):
    data, k = case
    params, cb = _one_dim_codec(k)
    tracemalloc.start()
    try:
        try:
            msg = Message.from_bytes(data)
        except DecodeError:
            msg = None
        if msg is not None:
            assert msg.num_symbols <= msg.height * msg.width <= MAX_CELLS
            try:
                latents = decode_latents(msg, params, cb)
            except DecodeError:
                pass
            else:
                assert latents.shape == (msg.num_symbols, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _CHEAP_PEAK
