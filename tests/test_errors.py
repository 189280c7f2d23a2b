import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from dsc_codec import (
    Codebook,
    CodecError,
    CodecParams,
    ConfigError,
    FrequencyTable,
    build_freq_table,
    dequantize,
    empirical_entropy,
    evaluate_point,
    finetune_step,
    fit_codec,
    fit_encoder_projection,
    generate_frames,
    generate_scene,
    kmeans_fit,
    mask_from_scores,
    observe,
    perturb_pose,
    rans_decode,
    rans_encode,
    raw_payload_bytes,
    rd_sweep,
    robustness_sweep,
    run_link,
    score_map,
    train_codebook,
    translate,
)
from dsc_codec import simulate
from dsc_codec.errors import frozen_array
from dsc_codec.rans import RANS_L
from dsc_codec.simulate import Scene, derive_seed, scene_config, visibility_mask
from tests.test_pipeline import _count_calls

# ------------------------------------------------------------- frozen_array


def test_frozen_array_accepts_exact_and_any_sizes():
    arr = frozen_array("x", [[1, 2, 3], [4, 5, 6]], np.float32, (2, None))
    assert arr.dtype == np.float32 and arr.shape == (2, 3)
    assert arr.flags.c_contiguous
    assert np.array_equal(arr, [[1, 2, 3], [4, 5, 6]])
    assert frozen_array("x", np.ones((1, 7)), np.float64, (None, None)).shape == (1, 7)
    # An exact size may be 0; a None axis never is.
    assert frozen_array("x", np.ones((0, 3)), np.float64, (0, 3)).shape == (0, 3)


@pytest.mark.parametrize(
    "values, shape",
    [
        (np.ones((2, 3)), (3, None)),
        (np.ones((2, 3)), (None, 2)),
        (np.ones((2, 3)), (None,)),
        (np.ones((2, 3)), (None, None, None)),
        (np.ones((0, 3)), (None, 3)),
        (np.ones((2, 0)), (2, None)),
    ],
)
def test_frozen_array_rejects_wrong_rank_size_and_zero_size_axes(values, shape):
    with pytest.raises(ConfigError, match=r"^x must have shape \("):
        frozen_array("x", values, np.float64, shape)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frozen_array_rejects_non_finite_values(bad):
    with pytest.raises(ConfigError, match="x contains non-finite values"):
        frozen_array("x", [0.0, bad], np.float64, (2,))


def test_frozen_array_is_read_only_and_does_not_follow_its_input():
    source = np.zeros((2, 2))
    arr = frozen_array("x", source, np.float64, (2, 2))
    with pytest.raises(ValueError):
        arr[0, 0] = 1.0
    source[0, 0] = 5.0
    assert arr[0, 0] == 0.0
    # The copy is made even when the input already has the requested dtype.
    assert not np.shares_memory(arr, source)


# -------------------------------------------------------------- index_array

_CB3 = Codebook(np.arange(6.0).reshape(3, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: dequantize([1.9], _CB3),
        lambda: build_freq_table([0.5, 2.7], 3),
        lambda: rans_encode([0.0, 1.0], build_freq_table([0, 1], 3)),
        lambda: empirical_entropy([2**63]),
        lambda: empirical_entropy(np.array([2**63], dtype=np.uint64)),
        lambda: empirical_entropy([2**64]),
        lambda: empirical_entropy([1, float("nan")]),
        lambda: empirical_entropy(["1"]),
        lambda: dequantize([True], _CB3),
    ],
)
def test_index_arrays_reject_entries_that_are_not_int64_integers(call):
    # Truncating 1.9 to codeword 1, or wrapping 2**63, would be silent garbage.
    with pytest.raises(CodecError) as info:
        call()
    assert isinstance(info.value, ConfigError)


def test_index_arrays_accept_integer_dtypes_and_empty_sequences():
    assert dequantize(np.array([2, 0], dtype=np.uint8), _CB3).tolist() == [[4, 5], [0, 1]]
    assert dequantize(np.array([1], dtype=np.int32), _CB3).tolist() == [[2, 3]]
    assert empirical_entropy(np.array([2**62, 2**62 - 1], dtype=np.uint64) % 3) >= 0.0
    # np.asarray([]) is float64; an empty index sequence stays valid.
    assert rans_encode([], build_freq_table([0, 1], 3)) == (b"", RANS_L)
    assert dequantize([], _CB3).shape == (0, 2)


# --------------------------------------------------------- integer arguments

# (argument, call with the value, lowest accepted value, highest or None).
# Every call's other arguments are valid, so a ConfigError naming the
# argument can come only from the argument's own check.
_INTEGER_ARGUMENTS = [
    ("fit_codec codebook_size", "codebook size",
     lambda s, v: fit_codec(s.cfg, codebook_size=v, embed_dim=4, train_scenes=1), 1, 0xFFFF),
    ("fit_codec embed_dim", "embed_dim",
     lambda s, v: fit_codec(s.cfg, codebook_size=4, embed_dim=v, train_scenes=1), 1, None),
    ("fit_codec train_scenes", "train_scenes",
     lambda s, v: fit_codec(s.cfg, codebook_size=4, embed_dim=4, train_scenes=v), 1, None),
    ("rd_sweep codebook_sizes", "codebook size",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4, v], 4, 1, 1), 1, 0xFFFF),
    ("rd_sweep embed_dim", "embed_dim",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], v, 1, 1), 1, None),
    ("rd_sweep scenes_per_point", "scenes_per_point",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], 4, v, 1), 1, None),
    ("rd_sweep train_scenes", "train_scenes",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], 4, 1, v), 1, None),
    ("rd_sweep budget", "budget",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], 4, 1, 1, budget=v), 0, None),
    ("evaluate_point scenes", "scenes",
     lambda s, v: evaluate_point(s.cfg, s.params, s.cb, 0.0, scenes=v), 1, None),
    ("robustness_sweep scenes", "scenes",
     lambda s, v: robustness_sweep(s.cfg, [0.0], [0], s.params, s.cb, scenes=v), 1, None),
    ("run_link t", "t",
     lambda s, v: run_link(s.cfg, v, 1, 0, s.params, s.cb), 0, None),
    ("run_link sender", "sender",
     lambda s, v: run_link(s.cfg, 4, v, 0, s.params, s.cb), 0, 1),
    ("run_link receiver", "receiver",
     lambda s, v: run_link(s.cfg, 4, 1, v, s.params, s.cb), 0, 1),
    ("run_link budget", "budget",
     lambda s, v: run_link(s.cfg, 4, 1, 0, s.params, s.cb, budget=v), 0, None),
    ("kmeans_fit k", "k",
     lambda s, v: kmeans_fit(s.samples, v, 2, 0), 1, None),
    ("kmeans_fit iters", "iters",
     lambda s, v: kmeans_fit(s.samples, 2, v, 0), 0, None),
    ("kmeans_fit seed", "seed",
     lambda s, v: kmeans_fit(s.samples, 2, 1, v), 0, None),
    ("train_codebook k", "k",
     lambda s, v: train_codebook(s.samples, v, 2, 0), 1, 0xFFFF),
    ("FrequencyTable precision", "precision",
     lambda s, v: FrequencyTable([1 << 12], v), 8, 16),
    ("build_freq_table num_symbols", "num_symbols",
     lambda s, v: build_freq_table([0, 0], v, 12), 1, None),
    ("build_freq_table precision", "precision",
     lambda s, v: build_freq_table([0, 1], 2, v), 8, 16),
    ("rans_decode n", "symbol count",
     lambda s, v: rans_decode(b"", FrequencyTable([1 << 12], 12), v, 1 << 23), 0, None),
    ("generate_frames t_max", "frame index",
     lambda s, v: generate_frames(s.cfg, v), 0, None),
    ("scene_config index", "scene index",
     lambda s, v: scene_config(s.cfg, v), 0, None),
    ("ScenarioConfig seed", "seed",
     lambda s, v: dataclasses.replace(s.cfg, seed=v), 0, 2**64 - 1),
    ("Scene t", "frame index",
     lambda s, v: Scene(s.scene.latent, v), 0, None),
    ("derive_seed part", "seed part",
     lambda s, v: derive_seed(v, 2), 0, None),
    ("perturb_pose seed", "seed",
     lambda s, v: perturb_pose(s.feature, 1.0, v), 0, None),
    ("visibility_mask agent_id", "agent_id",
     lambda s, v: visibility_mask(s.cfg, v), 0, 1),
    ("observe agent_id", "agent_id",
     lambda s, v: observe(s.scene, v, s.cfg), 0, 1),
    ("fit_encoder_projection embed_dim", "embed_dim",
     lambda s, v: fit_encoder_projection([s.feature], v), 1, None),
    ("CodecParams codebook_hash", "codebook_hash",
     lambda s, v: CodecParams(np.eye(2, 8), np.zeros(8), v), 0, 2**64 - 1),
    ("raw_payload_bytes channels", "channels",
     lambda s, v: raw_payload_bytes(v, 3, 3, 8), 1, None),
    ("raw_payload_bytes height", "height",
     lambda s, v: raw_payload_bytes(2, v, 3, 8), 1, None),
    ("raw_payload_bytes width", "width",
     lambda s, v: raw_payload_bytes(2, 3, v, 8), 1, None),
    ("raw_payload_bytes bits_per_scalar", "bits_per_scalar",
     lambda s, v: raw_payload_bytes(2, 3, 3, v), 1, None),
]


@pytest.mark.parametrize(
    "name, call, low, high",
    [case[1:] for case in _INTEGER_ARGUMENTS],
    ids=[case[0] for case in _INTEGER_ARGUMENTS],
)
def test_integer_argument_rejects_non_integers_and_out_of_range_before_simulating(
    monkeypatch, small_cfg, small_fitted, name, call, low, high
):
    scene = generate_scene(small_cfg, 0)
    feature = observe(scene, 1, small_cfg)
    setup = SimpleNamespace(
        cfg=small_cfg,
        params=small_fitted.params,
        cb=small_fitted.codebook,
        scene=scene,
        feature=feature,
        samples=np.random.default_rng(0).normal(size=(20, 3)),
    )
    fields = _count_calls(monkeypatch, simulate, "_unit_field")
    # float(low) is in range but not an integer.
    bad = [2.5, 1.0, float(low), low - 1] + ([] if high is None else [high + 1])
    for value in bad:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be "):
            call(setup, value)
    assert fields == []


# ------------------------------------------------------------ real arguments

# (argument, call with the value). Every call's other arguments are valid, so
# a ConfigError naming the argument can come only from the argument's own check.
_REAL_ARGUMENTS = [
    ("ScenarioConfig rho", "rho",
     lambda s, v: dataclasses.replace(s.cfg, rho=v)),
    ("ScenarioConfig sigma_obs", "sigma_obs",
     lambda s, v: dataclasses.replace(s.cfg, sigma_obs=v)),
    ("ScenarioConfig visibility_overlap", "visibility_overlap",
     lambda s, v: dataclasses.replace(s.cfg, visibility_overlap=v)),
    ("ScenarioConfig alpha", "alpha",
     lambda s, v: dataclasses.replace(s.cfg, alpha=v)),
    ("run_link tau", "tau",
     lambda s, v: run_link(s.cfg, 4, 1, 0, s.params, s.cb, tau=v)),
    ("run_link sigma_pose", "sigma_pose",
     lambda s, v: run_link(s.cfg, 4, 1, 0, s.params, s.cb, sigma_pose=v)),
    ("run_link delay", "delay",
     lambda s, v: run_link(s.cfg, 4, 1, 0, s.params, s.cb, delay=v)),
    ("rd_sweep taus", "tau",
     lambda s, v: rd_sweep(s.cfg, [0.0, v], [4], 4, 1, 1)),
    ("robustness_sweep sigmas", "sigma_pose",
     lambda s, v: robustness_sweep(s.cfg, [0.0, v], [0], s.params, s.cb, scenes=1)),
    ("robustness_sweep delays", "delay",
     lambda s, v: robustness_sweep(s.cfg, [0.0], [0, v], s.params, s.cb, scenes=1)),
    ("perturb_pose sigma_pose", "sigma_pose",
     lambda s, v: perturb_pose(s.feature, v, 0)),
    ("mask_from_scores tau", "tau",
     lambda s, v: mask_from_scores(score_map(s.feature), v)),
    ("finetune_step lr", "lr",
     lambda s, v: finetune_step(s.params, s.cb, [(s.feature, s.feature)], v)),
]


@pytest.mark.parametrize(
    "name, call",
    [case[1:] for case in _REAL_ARGUMENTS],
    ids=[case[0] for case in _REAL_ARGUMENTS],
)
def test_real_argument_rejects_non_numbers_before_simulating(
    monkeypatch, small_cfg, small_fitted, name, call
):
    scene = generate_scene(small_cfg, 0)
    setup = SimpleNamespace(
        cfg=small_cfg,
        params=small_fitted.params,
        cb=small_fitted.codebook,
        feature=observe(scene, 1, small_cfg),
    )
    fields = _count_calls(monkeypatch, simulate, "_unit_field")
    for value in ["0.5", "1", None, 1j, [0.5]]:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be a real number, got "):
            call(setup, value)
    assert fields == []


# ------------------------------------------------------------ k-means input

@pytest.mark.parametrize("k", [1, 2, 64])
@pytest.mark.parametrize("fit", [kmeans_fit, train_codebook])
def test_kmeans_rejects_samples_whose_squared_distances_overflow(fit, k):
    # Finite samples of about 1e160: their squared distances pass float64's
    # range. rng.choice used to raise a bare ValueError here, and the
    # distance kernel an overflow warning.
    samples = np.random.default_rng(51).normal(size=(100, 4)) * 1e160
    with pytest.raises(ConfigError, match="overflow float64"):
        fit(samples, k, 5, 0)


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0)])
def test_translate_rejects_non_integer_shifts(small_cfg, value):
    feature = observe(generate_scene(small_cfg, 0), 0, small_cfg)
    with pytest.raises(ConfigError, match="^dh must be an integer"):
        translate(feature, value, 0)
    with pytest.raises(ConfigError, match="^dw must be an integer"):
        translate(feature, 0, value)


def test_numpy_integer_seeds_frames_and_shifts_give_the_same_output(small_cfg):
    as_numpy = dataclasses.replace(small_cfg, seed=np.uint64(small_cfg.seed))
    assert as_numpy == small_cfg and type(as_numpy.seed) is int
    scene = generate_scene(small_cfg, 2)
    assert np.array_equal(Scene(scene.latent, np.int64(2)).latent, scene.latent)
    observed = observe(Scene(scene.latent, np.int32(2)), 1, small_cfg)
    assert np.array_equal(observed.values, observe(scene, 1, small_cfg).values)
    assert derive_seed(np.uint64(7), np.int8(2)) == derive_seed(7, 2)
    feature = observe(scene, 0, small_cfg)
    shifted = translate(feature, np.int64(-3), np.int16(2))
    assert np.array_equal(shifted.values, translate(feature, -3, 2).values)
    posed = perturb_pose(feature, 2.0, np.uint64(9))
    assert np.array_equal(posed.values, perturb_pose(feature, 2.0, 9).values)
    samples = np.random.default_rng(0).normal(size=(20, 3))
    np.testing.assert_array_equal(
        kmeans_fit(samples, 2, 3, np.int64(4))[0], kmeans_fit(samples, 2, 3, 4)[0]
    )
