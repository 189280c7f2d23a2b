import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsc_codec import (
    ConfigError,
    FeatureMap,
    FormatError,
    Mask,
    ShapeMismatchError,
    apply_mask,
    elementwise_max,
    load_feature_map,
    mse,
    raw_payload_bytes,
    save_feature_map,
)


def fmap(values) -> FeatureMap:
    return FeatureMap(np.asarray(values, dtype=np.float32))


def random_map(seed: int, c=3, h=4, w=5) -> FeatureMap:
    return FeatureMap(np.random.default_rng(seed).normal(size=(c, h, w)))


def test_featuremap_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(ConfigError):
        FeatureMap(np.array([[[np.nan]]]))
    with pytest.raises(ConfigError):
        FeatureMap(np.array([[[np.inf]]]))
    with pytest.raises(ConfigError):
        FeatureMap(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        FeatureMap(np.zeros((0, 2, 2)))


@pytest.mark.parametrize("sizes", [(0, 2, 2), (1, 0, 2), (1, 2, -1), (2.5, 2, 2)])
def test_zeros_rejects_sizes_that_are_not_integers_from_one(sizes):
    with pytest.raises(ConfigError):
        FeatureMap.zeros(*sizes)


def test_featuremap_is_immutable():
    f = random_map(0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_apply_mask_identity_and_annihilating():
    f = random_map(1)
    assert np.array_equal(apply_mask(f, Mask.ones(4, 5)).values, f.values)
    assert np.array_equal(apply_mask(f, Mask.zeros(4, 5)).values, np.zeros((3, 4, 5)))


def test_apply_mask_single_cell_selector():
    values = np.zeros((2, 3, 3), dtype=np.float32)
    values[0, 1, 1] = 5.0
    values[1, 0, 0] = 7.0
    bits = np.zeros((3, 3), dtype=bool)
    bits[1, 1] = True
    out = apply_mask(FeatureMap(values), Mask(bits))
    assert out.values[0, 1, 1] == 5.0
    assert np.count_nonzero(out.values) == 1


def test_apply_mask_shape_error():
    with pytest.raises(ShapeMismatchError):
        apply_mask(random_map(2), Mask.ones(5, 4))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_apply_mask_idempotent(seed):
    r = np.random.default_rng(seed)
    f = FeatureMap(r.normal(size=(2, 6, 6)))
    m = Mask(r.random((6, 6)) < 0.5)
    once = apply_mask(f, m)
    assert np.array_equal(apply_mask(once, m).values, once.values)


def test_elementwise_max_examples():
    f = random_map(3)
    assert np.array_equal(elementwise_max(f, f).values, f.values)
    nonneg = FeatureMap(np.abs(f.values))
    zero = FeatureMap.zeros(3, 4, 5)
    assert np.array_equal(elementwise_max(nonneg, zero).values, nonneg.values)
    a = fmap([[[1.0, 4.0]]])
    b = fmap([[[3.0, 2.0]]])
    assert elementwise_max(a, b).values.tolist() == [[[3.0, 4.0]]]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_elementwise_max_commutative_associative(seed):
    r = np.random.default_rng(seed)
    a, b, c = (FeatureMap(r.normal(size=(2, 3, 3))) for _ in range(3))
    ab = elementwise_max(a, b)
    ba = elementwise_max(b, a)
    assert np.array_equal(ab.values, ba.values)
    left = elementwise_max(ab, c)
    right = elementwise_max(a, elementwise_max(b, c))
    assert np.array_equal(left.values, right.values)


def test_mse_examples():
    f = random_map(4)
    assert mse(f, f) == 0.0
    zeros = FeatureMap.zeros(1, 2, 2)
    ones = FeatureMap(np.ones((1, 2, 2)))
    assert mse(zeros, ones) == 1.0
    a = fmap([[[0.0, 2.0]]])
    b = fmap([[[1.0, 0.0]]])
    assert mse(a, b) == pytest.approx(2.5)


def test_mse_zero_iff_equal():
    f = random_map(5)
    bumped = np.array(f.values)
    bumped[0, 0, 0] += 1e-3
    assert mse(f, FeatureMap(bumped)) > 0.0
    with pytest.raises(ShapeMismatchError):
        mse(f, random_map(5, c=2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mse_matches_two_copy_float64_formula_bit_for_bit(data):
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)))
    elements = st.floats(width=32, allow_nan=False, allow_infinity=False)
    a = data.draw(arrays(np.float32, shape, elements=elements))
    b = data.draw(arrays(np.float32, shape, elements=elements))
    diff = a.astype(np.float64) - b.astype(np.float64)
    assert mse(FeatureMap(a), FeatureMap(b)) == float(np.mean(diff * diff))


@st.composite
def masked_maps(draw):
    """A finite float32 map and an empty, one-cell, sparse or full mask of its grid."""
    c, h, w = draw(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)))
    elements = st.floats(width=32, allow_nan=False, allow_infinity=False)
    f = FeatureMap(draw(arrays(np.float32, (c, h, w), elements=elements)))
    kind = draw(st.sampled_from(["empty", "one", "sparse", "full"]))
    bits = np.zeros(h * w, dtype=bool)
    if kind == "one":
        bits[draw(st.integers(0, h * w - 1))] = True
    elif kind == "sparse":
        bits[draw(st.lists(st.integers(0, h * w - 1), max_size=max(1, h * w // 4)))] = True
    elif kind == "full":
        bits[:] = True
    return f, Mask(bits.reshape(h, w))


@given(masked_maps())
@settings(max_examples=100, deadline=None)
def test_cell_vectors_at_a_mask_are_the_kept_rows_of_every_cell(case):
    f, mask = case
    every = f.cell_vectors()
    assert every.flags.c_contiguous and every.flags.owndata
    assert np.array_equal(every, f.values.astype(np.float64).reshape(f.channels, -1).T)
    kept = f.cell_vectors(mask)
    assert kept.dtype == np.float64
    assert kept.flags.c_contiguous and kept.flags.owndata
    assert kept.shape == (mask.count(), f.channels)
    # Bit for bit, the sign of zero included.
    assert kept.tobytes() == every[mask.bits.ravel()].tobytes()
    assert not np.shares_memory(kept, f.values)
    with pytest.raises(ShapeMismatchError):
        f.cell_vectors(Mask.ones(f.height + 1, f.width))


def test_raw_payload_bytes_values():
    # 64 * 256 * 256 * 32 bits = 16 MiB exactly.
    assert raw_payload_bytes(64, 256, 256, 32) == 16_777_216
    assert raw_payload_bytes(1, 1, 1, 8) == 1
    assert raw_payload_bytes(1, 1, 1, 9) == 2
    for bad in [(0, 1, 1, 8), (1, 0, 1, 8), (1, 1, 0, 8), (1, 1, 1, 0)]:
        with pytest.raises(ConfigError):
            raw_payload_bytes(*bad)


@given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32), st.sampled_from([8, 16, 32]))
@settings(max_examples=50)
def test_raw_payload_multiplicative_when_bits_divide_bytes(c, h, w, b):
    assert raw_payload_bytes(c, h, w, b) == c * h * w * (b // 8)
    assert raw_payload_bytes(2 * c, h, w, b) == 2 * raw_payload_bytes(c, h, w, b)


def test_feature_map_file_roundtrip(tmp_path):
    f = random_map(6, c=5, h=7, w=3)
    path = tmp_path / "f.fmap"
    save_feature_map(f, path)
    loaded = load_feature_map(path)
    assert loaded.shape == f.shape
    assert np.array_equal(loaded.values, f.values)


def test_feature_map_file_errors(tmp_path):
    path = tmp_path / "bad.fmap"
    path.write_bytes(b"NOPE" + b"\x00" * 10)
    with pytest.raises(FormatError):
        load_feature_map(path)
    good = tmp_path / "short.fmap"
    f = random_map(7, c=1, h=2, w=2)
    save_feature_map(f, good)
    good.write_bytes(good.read_bytes()[:-1])
    with pytest.raises(FormatError):
        load_feature_map(good)


def test_feature_map_file_layout_matches_an_independent_packer(tmp_path):
    # 'FMAP' | u16 C | u16 H | u16 W, then the C*H*W values as f32 LE in
    # channel, row, column order. Distinct extents pin that order.
    f = FeatureMap((np.arange(24.0) - 5).reshape(2, 3, 4) / 4)
    body = [f.values[c, h, w] for c in range(2) for h in range(3) for w in range(4)]
    path = tmp_path / "f.fmap"
    save_feature_map(f, path)
    assert path.read_bytes() == struct.pack("<4sHHH", b"FMAP", 2, 3, 4) + struct.pack("<24f", *body)
    assert np.array_equal(load_feature_map(path).values, f.values)


@pytest.mark.parametrize(
    "shape, body, match",
    [
        ((1, 1, 2), [1.0, float("nan")], "non-finite"),
        ((1, 2, 1), [float("inf"), 1.0], "non-finite"),
        ((0, 3, 3), [], "shape"),
    ],
)
def test_feature_map_file_with_an_invalid_map_raises_format_error(tmp_path, shape, body, match):
    # 'FMAP' | u16 C | u16 H | u16 W | C*H*W f32 LE: the container parses, but
    # the map it holds is not a valid FeatureMap.
    path = tmp_path / "bad.fmap"
    path.write_bytes(struct.pack("<4sHHH", b"FMAP", *shape) + struct.pack(f"<{len(body)}f", *body))
    with pytest.raises(FormatError, match=match) as info:
        load_feature_map(path)
    assert isinstance(info.value.__cause__, ConfigError)
