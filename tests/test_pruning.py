import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsc_codec import (
    ConfigError,
    FeatureMap,
    apply_mask,
    mask_from_scores,
    occupancy,
    score_map,
)
from dsc_codec.features import Mask


def test_all_zero_map_gives_all_zero_scores():
    s = score_map(FeatureMap.zeros(4, 5, 6))
    assert np.all(s.values == 0.0)


def test_single_nonzero_cell_scores_one():
    values = np.zeros((3, 4, 4), dtype=np.float32)
    values[:, 2, 1] = 2.0
    s = score_map(FeatureMap(values))
    assert s.values[2, 1] == 1.0
    assert np.count_nonzero(s.values) == 1


def test_score_ratio_of_channel_norms():
    values = np.zeros((2, 1, 2), dtype=np.float32)
    values[:, 0, 0] = [3.0, 0.0]  # norm 3
    values[:, 0, 1] = [0.0, 4.0]  # norm 4
    s = score_map(FeatureMap(values))
    assert s.values[0, 0] == pytest.approx(0.75)
    assert s.values[0, 1] == 1.0


def test_scores_bounded_for_random_input(rng):
    s = score_map(FeatureMap(rng.normal(size=(6, 20, 20)) * 100.0))
    assert s.values.min() >= 0.0 and s.values.max() <= 1.0


def test_threshold_is_strict():
    values = np.zeros((1, 1, 3), dtype=np.float32)
    values[0, 0] = [0.0, 0.5, 1.0]
    s = score_map(FeatureMap(values))
    assert mask_from_scores(s, 0.4).bits.tolist() == [[False, True, True]]
    # Scores never exceed 1, so tau = 1 prunes everything.
    assert mask_from_scores(s, 1.0).count() == 0
    # Ties at exactly tau are pruned.
    assert mask_from_scores(s, 0.5).bits.tolist() == [[False, False, True]]


def test_tau_range_validation():
    s = score_map(FeatureMap.zeros(1, 2, 2))
    for bad in (-0.01, 1.01):
        with pytest.raises(ConfigError):
            mask_from_scores(s, bad)


def test_occupancy_values():
    assert occupancy(Mask.ones(3, 4)) == 1.0
    assert occupancy(Mask.zeros(3, 4)) == 0.0
    bits = np.zeros((3, 4), dtype=bool)
    bits[0, :3] = True
    assert occupancy(Mask(bits)) == pytest.approx(0.25)


def test_mask_monotone_in_tau_by_brute_force_sweep(rng):
    f = FeatureMap(rng.normal(size=(4, 16, 16)))
    s = score_map(f)
    taus = np.linspace(0.0, 1.0, 21)
    masks = [mask_from_scores(s, float(t)) for t in taus]
    for lo, hi in zip(masks, masks[1:]):
        # Higher threshold keeps a subset of the cells.
        assert np.all(hi.bits <= lo.bits)
    occs = [occupancy(m) for m in masks]
    assert all(a >= b for a, b in zip(occs, occs[1:]))


def test_tau_zero_preserves_cells_with_nonzero_channel_vector(rng):
    values = rng.normal(size=(3, 8, 8)).astype(np.float32)
    values[:, 0, 0] = 0.0
    f = FeatureMap(values)
    m = mask_from_scores(score_map(f), 0.0)
    nonzero = np.any(f.values != 0.0, axis=0)
    assert np.array_equal(m.bits, nonzero)
    assert np.array_equal(apply_mask(f, m).values, f.values)


_MAPS = st.tuples(st.integers(1, 64), st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(
        np.float32, shape, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)
    )
)


@given(_MAPS)
# A lone cell with C=64 is where numpy sums axis 0 pairwise rather than
# channel by channel; its normalized score is 1.0 whatever the order.
@example(np.random.default_rng(64).normal(size=(64, 1, 1)).astype(np.float32))
@settings(max_examples=100, deadline=None)
def test_score_map_is_the_float64_channel_norm_bit_for_bit(values):
    v = values.astype(np.float64)
    norms = np.sqrt(np.sum(v * v, axis=0))
    peak = norms.max()
    expected = norms if peak == 0.0 else np.minimum(norms / peak, 1.0)
    assert np.array_equal(score_map(FeatureMap(values)).values, expected)
