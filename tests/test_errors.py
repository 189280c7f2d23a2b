import re
from types import SimpleNamespace

import numpy as np
import pytest

from dsc_codec import (
    CodecParams,
    ConfigError,
    FrequencyTable,
    Mask,
    build_freq_table,
    encode_message,
    evaluate_point,
    fit_codec,
    fit_encoder_projection,
    generate_frames,
    generate_scene,
    kmeans_fit,
    observe,
    rans_decode,
    raw_payload_bytes,
    rd_sweep,
    robustness_sweep,
    run_link,
)
from dsc_codec import simulate
from dsc_codec.errors import frozen_array
from dsc_codec.simulate import scene_config, visibility_mask
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


# --------------------------------------------------------- integer arguments

# (argument, call with the value, lowest accepted value, highest or None).
# Every call's other arguments are valid, so a ConfigError naming the
# argument can come only from the argument's own check.
_INTEGER_ARGUMENTS = [
    ("fit_codec codebook_size", "codebook size",
     lambda s, v: fit_codec(s.cfg, codebook_size=v, embed_dim=4, train_scenes=1), 1, None),
    ("fit_codec embed_dim", "embed_dim",
     lambda s, v: fit_codec(s.cfg, codebook_size=4, embed_dim=v, train_scenes=1), 1, None),
    ("fit_codec train_scenes", "train_scenes",
     lambda s, v: fit_codec(s.cfg, codebook_size=4, embed_dim=4, train_scenes=v), 1, None),
    ("rd_sweep codebook_sizes", "codebook size",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4, v], 4, 1, 1), 1, None),
    ("rd_sweep embed_dim", "embed_dim",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], v, 1, 1), 1, None),
    ("rd_sweep scenes_per_point", "scenes_per_point",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], 4, v, 1), 1, None),
    ("rd_sweep train_scenes", "train_scenes",
     lambda s, v: rd_sweep(s.cfg, [0.0], [4], 4, 1, v), 1, None),
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
    ("kmeans_fit k", "k",
     lambda s, v: kmeans_fit(s.samples, v, 2, 0), 1, None),
    ("kmeans_fit iters", "iters",
     lambda s, v: kmeans_fit(s.samples, 2, v, 0), 0, None),
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
    ("visibility_mask agent_id", "agent_id",
     lambda s, v: visibility_mask(s.cfg, v), 0, 1),
    ("observe agent_id", "agent_id",
     lambda s, v: observe(s.scene, v, s.cfg), 0, 1),
    ("fit_encoder_projection embed_dim", "embed_dim",
     lambda s, v: fit_encoder_projection([s.feature], v), 1, None),
    ("encode_message precision", "precision",
     lambda s, v: encode_message(s.feature, s.mask, s.params, s.cb, precision=v), 8, 15),
    ("CodecParams context_radius", "context_radius",
     lambda s, v: CodecParams(np.eye(2, 8), np.zeros(8), 0, context_radius=v), 0, 255),
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
        mask=Mask.ones(feature.height, feature.width),
        samples=np.random.default_rng(0).normal(size=(20, 3)),
    )
    fields = _count_calls(monkeypatch, simulate, "_unit_field")
    # float(low) is in range but not an integer.
    bad = [2.5, 1.0, float(low), low - 1] + ([] if high is None else [high + 1])
    for value in bad:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be "):
            call(setup, value)
    assert fields == []

