from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsc_codec import (
    ConfigError,
    DecodeError,
    FrequencyTable,
    FrequencyTableError,
    build_freq_table,
    rans,
    rans_decode,
    rans_encode,
)
from dsc_codec.rans import MAX_PRECISION, MIN_PRECISION, RANS_L


# rans_decode's two symbol lookups, forced by the ratio its rule compares:
# ratio 0 bisects every message, and 2^40 reads every one from the slot lists.
_PATHS = {"bisect": 0, "lists": 1 << 40}


@contextmanager
def _decode_path(path: str):
    saved = rans._BISECT_RATIO
    rans._BISECT_RATIO = _PATHS[path]
    try:
        yield
    finally:
        rans._BISECT_RATIO = saved


def _decode_or_error(path, payload, ft, n, state):
    """Both paths' outcome: the symbols, or the DecodeError's message."""
    with _decode_path(path):
        try:
            return rans_decode(payload, ft, n, state).tolist()
        except DecodeError as exc:
            return str(exc)


def test_table_invariants():
    ft = build_freq_table([0, 1, 2, 3], 4, precision=12)
    assert ft.freqs.tolist() == [1024, 1024, 1024, 1024]
    assert ft.cumulative.tolist() == [0, 1024, 2048, 3072, 4096]
    with pytest.raises(FrequencyTableError):
        FrequencyTable(np.array([1, 2]), precision=12)  # wrong sum
    with pytest.raises(ConfigError):
        FrequencyTable(np.array([128, 128]), precision=7)


def test_exact_scaling_example():
    idx = np.array([0] * 3 + [1] * 1)
    ft = build_freq_table(idx, 2, precision=12)
    assert ft.freqs.tolist() == [3072, 1024]


def test_rare_symbol_keeps_nonzero_frequency():
    idx = np.array([0] * 4095 + [1])
    ft = build_freq_table(idx, 2, precision=12)
    assert ft.freqs[1] >= 1
    assert int(ft.freqs.sum()) == 4096


def test_build_table_validation():
    with pytest.raises(ConfigError):
        build_freq_table([], 4, precision=12)
    with pytest.raises(ConfigError):
        build_freq_table([0], 4, precision=7)
    with pytest.raises(ConfigError):
        build_freq_table([4], 4, precision=12)
    # More distinct symbols than probability slots cannot be represented.
    with pytest.raises(FrequencyTableError):
        build_freq_table(np.arange(300), 300, precision=8)


def test_single_symbol_roundtrip():
    ft = build_freq_table([0], 1, precision=8)
    payload, state = rans_encode([0], ft)
    out = rans_decode(payload, ft, 1, state)
    assert out.tolist() == [0]


def test_zero_symbol_stream():
    ft = build_freq_table([0, 1], 2, precision=8)
    payload, state = rans_encode(np.empty(0, dtype=np.int64), ft)
    assert payload == b"" and state == RANS_L
    out = rans_decode(b"", ft, 0, RANS_L)
    assert out.dtype == np.int32 and out.shape == (0,)


@pytest.mark.parametrize(
    "payload, state, match",
    [(b, RANS_L, "unconsumed payload bytes") for b in (b"\x00", b"\xff", b"\x00\x01")]
    + [
        (b"", s, "did not return to the initial value")
        for s in (RANS_L + 1, 2 * RANS_L, (RANS_L << 8) - 1)
    ]
    + [(b"", s, "outside the valid interval") for s in (0, RANS_L - 1, RANS_L << 8, 2**64)],
)
def test_zero_symbol_stream_rejects_leftover_bytes_and_any_other_state(payload, state, match):
    # n = 0 runs the general decode loop zero times; its end checks decide.
    ft = build_freq_table([0, 1], 2, precision=8)
    with pytest.raises(DecodeError, match=match):
        rans_decode(payload, ft, 0, state)


def test_encode_rejects_zero_frequency_symbol():
    ft = FrequencyTable(np.array([256, 0]), precision=8)
    with pytest.raises(FrequencyTableError):
        rans_encode([1], ft)


def test_determinism():
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 16, size=5000)
    ft = build_freq_table(idx, 16, precision=12)
    assert rans_encode(idx, ft) == rans_encode(idx, ft)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(data):
    k = data.draw(st.integers(1, 64))
    p = data.draw(st.integers(MIN_PRECISION, MAX_PRECISION))
    n = data.draw(st.integers(1, 400))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, k, size=n)
    ft = build_freq_table(idx, k, precision=p)
    payload, state = rans_encode(idx, ft)
    out = rans_decode(payload, ft, n, state)
    assert out.dtype == np.int32
    assert np.array_equal(out, idx)
    for path in _PATHS:
        with _decode_path(path):
            forced = rans_decode(payload, ft, n, state)
        assert forced.dtype == np.int32 and np.array_equal(forced, idx)


@pytest.mark.parametrize("p", range(MIN_PRECISION, MAX_PRECISION + 1))
def test_both_decode_paths_agree_on_symbols_and_errors_at_every_precision(p):
    # The clean stream, a trailing byte, a wrong final state and every
    # truncation: both paths return the same symbols or raise the same
    # DecodeError at the same symbol.
    rng = np.random.default_rng(p)
    truncations = set()
    for k, n in ((2, 1), (16, 40), (64, 300)):
        idx = rng.integers(0, k, size=n)
        ft = build_freq_table(idx, k, precision=p)
        payload, state = rans_encode(idx, ft)
        assert _decode_or_error("bisect", payload, ft, n, state) == idx.tolist()
        cases = [(payload, state), (payload + b"\x00", state), (payload, RANS_L + 1)]
        cases += [(payload[:cut], state) for cut in range(len(payload))]
        for data, start in cases:
            outcome = _decode_or_error("bisect", data, ft, n, start)
            assert outcome == _decode_or_error("lists", data, ft, n, start)
            if isinstance(outcome, str) and "truncated" in outcome:
                truncations.add(outcome)
    assert len(truncations) > 1


def test_slot_path_decodes_across_band_edges(monkeypatch):
    # Bands of 7 slots: 40 symbols span six bands, the last one partial. The
    # clean stream, a trailing byte, a wrong final state and every truncation
    # give the bisect path's symbols or DecodeError.
    monkeypatch.setattr(rans, "_DECODE_BAND", 7)
    idx = np.random.default_rng(5).integers(0, 16, size=40)
    ft = build_freq_table(idx, 16, precision=12)
    payload, state = rans_encode(idx, ft)
    assert _decode_or_error("lists", payload, ft, 40, state) == idx.tolist()
    cases = [(payload + b"\x00", state), (payload, RANS_L + 1)]
    cases += [(payload[:cut], state) for cut in range(len(payload))]
    for data, start in cases:
        outcome = _decode_or_error("lists", data, ft, 40, start)
        assert outcome == _decode_or_error("bisect", data, ft, 40, start)


def test_rule_bisects_short_messages_without_building_the_slot_lists():
    # n = 400 against 2^12: 10 * 400 < 4096 bisects; n = 410 reads the lists.
    for n, bisects in ((400, True), (410, False)):
        idx = np.arange(n) % 7
        ft = build_freq_table(idx, 7, precision=12)
        payload, state = rans_encode(idx, ft)
        assert rans_decode(payload, ft, n, state).tolist() == idx.tolist()
        assert ("decoder_lists" in ft.__dict__) is not bisects


@pytest.mark.parametrize("p", range(MIN_PRECISION, MAX_PRECISION + 1))
def test_one_symbol_table_fills_every_slot_and_roundtrips(p):
    # k=1 holds all 2^p slots at f = 2^p: the state never moves, no byte is
    # written, and every decoded slot maps back to symbol 0.
    ft = build_freq_table(np.zeros(300, dtype=np.int64), 1, precision=p)
    assert ft.freqs.tolist() == [1 << p]
    symbols, freq, bias = ft.decoder_lists
    assert symbols.dtype == np.int32 and symbols.tolist() == [0] * (1 << p)
    assert freq == [1 << p] * (1 << p) and bias == list(range(1 << p))
    payload, state = rans_encode(np.zeros(300, dtype=np.int64), ft)
    assert payload == b"" and state == RANS_L
    out = rans_decode(payload, ft, 300, state)
    assert out.dtype == np.int32 and out.tolist() == [0] * 300


def test_decoder_lists_hold_each_slots_symbol_frequency_and_offset():
    ft = FrequencyTable(np.array([2, 0, 5, 1] + [0] * 3 + [248]), precision=8)
    symbols, freq, bias = ft.decoder_lists
    assert not symbols.flags.writeable
    assert symbols[:9].tolist() == [0, 0, 2, 2, 2, 2, 2, 3, 7]
    assert freq[:9] == [2, 2, 5, 5, 5, 5, 5, 1, 248]
    assert bias[:9] == [0, 1, 0, 1, 2, 3, 4, 0, 0]
    assert bias[-1] == 247 and len(symbols) == len(freq) == len(bias) == 256


def test_truncated_payload_is_detected():
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 32, size=4000)
    ft = build_freq_table(idx, 32, precision=12)
    payload, state = rans_encode(idx, ft)
    assert len(payload) > 4
    for path in _PATHS:
        with _decode_path(path), pytest.raises(
            DecodeError, match=rf"payload truncated at symbol \d+ of {len(idx)}"
        ):
            rans_decode(payload[:-3], ft, len(idx), state)


def test_trailing_bytes_are_detected():
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 8, size=512)
    ft = build_freq_table(idx, 8, precision=10)
    payload, state = rans_encode(idx, ft)
    with pytest.raises(DecodeError):
        rans_decode(payload + b"\x00", ft, len(idx), state)


def test_bad_initial_state_is_detected():
    ft = build_freq_table([0, 1], 2, precision=8)
    payload, state = rans_encode([0, 1, 0], ft)
    with pytest.raises(DecodeError):
        rans_decode(payload, ft, 3, RANS_L - 1)


def test_wrong_table_never_silently_passes_integrity_checks():
    # Decoding with a mismatched table of the same size must either raise or
    # yield symbols; it may never crash or hang. Most corruptions trip the
    # final-state / byte-count integrity checks.
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 16, size=2000)
    ft = build_freq_table(idx, 16, precision=12)
    payload, state = rans_encode(idx, ft)
    other = build_freq_table(rng.integers(0, 16, size=100), 16, precision=12)
    try:
        out = rans_decode(payload, other, len(idx), state)
        assert out.shape == (len(idx),)
        assert not np.array_equal(out, idx)
    except DecodeError:
        pass


def test_compression_close_to_empirical_entropy():
    rng = np.random.default_rng(4)
    probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.03125])
    idx = rng.choice(6, size=20000, p=probs)
    ft = build_freq_table(idx, 6, precision=12)
    payload, state = rans_encode(idx, ft)
    counts = np.bincount(idx, minlength=6)
    pr = counts[counts > 0] / len(idx)
    entropy_bits = float(-np.sum(pr * np.log2(pr))) * len(idx)
    coded_bits = 8 * len(payload) + 32
    assert coded_bits <= 1.02 * entropy_bits + 512
    assert np.array_equal(rans_decode(payload, ft, len(idx), state), idx)
