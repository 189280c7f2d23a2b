import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

from dsc_codec import (
    ConfigError,
    FeatureMap,
    FormatError,
    Mask,
    ScenarioConfig,
    UndefinedCorrelationError,
    empirical_correlation,
    generate_frames,
    generate_scene,
    load_scenario,
    observe,
    perturb_pose,
    save_scenario,
    translate,
)
from dsc_codec.simulate import (
    _BLUR_SIZE,
    _FIELD_STD,
    STREAM_SCENE,
    _box_blur,
    _rng,
    _unit_field,
    covisible_mask,
    scene_config,
    visibility_mask,
)


def cfg_with(**kw) -> ScenarioConfig:
    base = dict(num_agents=2, channels=16, height=64, width=64, rho=0.9, seed=11)
    base.update(kw)
    return ScenarioConfig(**base)


# Lines shorter than the 5-cell window wrap onto themselves more than once.
_BLUR_SHAPES = [(2, h, w) for h in (1, 2, 3, 4, 9) for w in (1, 2, 3, 4, 7) if min(h, w) <= 4]


def _scipy_blur(x):
    size = (1, _BLUR_SIZE, _BLUR_SIZE)
    return uniform_filter(uniform_filter(x, size=size, mode="wrap"), size=size, mode="wrap")


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
@pytest.mark.parametrize("shape", _BLUR_SHAPES)
def test_box_blur_equals_scipy_uniform_filter_bit_for_bit(shape, scale):
    x = np.random.default_rng(sum(shape)).normal(size=shape) * scale
    want = _scipy_blur(x)
    got = _box_blur(x)
    assert got is x
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 2), (2, 33, 17), (4, 64, 64)])
def test_unit_field_equals_the_scipy_blur_bit_for_bit(shape):
    want = _scipy_blur(_rng(9, STREAM_SCENE, 0).standard_normal(shape)) / _FIELD_STD
    got = _unit_field(_rng(9, STREAM_SCENE, 0), *shape)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_config_accepts_numpy_integer_sizes():
    cfg = cfg_with(
        num_agents=np.int64(3), channels=np.int32(4), height=np.uint16(8), width=np.int8(6)
    )
    assert type(cfg.height) is int and cfg == cfg_with(num_agents=3, channels=4, height=8, width=6)
    assert generate_scene(cfg, 0).latent.shape == (4, 8, 6)
    assert observe(generate_scene(cfg, 0), 2, cfg).values.shape == (4, 8, 6)


def full_mask(cfg) -> Mask:
    return Mask.ones(cfg.height, cfg.width)


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(num_agents=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(rho=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(visibility_overlap=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(sigma_obs=-1.0)
    for bad in (
        {"num_agents": 2.5},
        {"channels": 2.5},
        {"height": 8.0},
        {"width": "8"},
        {"sigma_obs": float("nan")},
        {"sigma_obs": float("inf")},
        {"rho": float("nan")},
        {"visibility_overlap": float("nan")},
    ):
        with pytest.raises(ConfigError):
            ScenarioConfig(**bad)


def test_scene_determinism():
    cfg = cfg_with()
    a = generate_scene(cfg, 3)
    b = generate_scene(cfg, 3)
    assert np.array_equal(a.latent, b.latent)
    c = generate_scene(dataclasses.replace(cfg, seed=12), 3)
    assert not np.array_equal(a.latent, c.latent)


def test_generate_frames_walks_the_chain_once_bit_exactly():
    cfg = cfg_with(channels=4, height=16, width=16)
    frames = generate_frames(cfg, 3)
    assert [f.t for f in frames] == [0, 1, 2, 3]
    # Independent replay of the documented recursion, frame by frame.
    shape = (cfg.channels, cfg.height, cfg.width)
    z = _unit_field(_rng(cfg.seed, STREAM_SCENE, 0), *shape)
    for t, frame in enumerate(frames):
        if t > 0:
            eps = _unit_field(_rng(cfg.seed, STREAM_SCENE, t), *shape)
            z = cfg.alpha * z + np.sqrt(1.0 - cfg.alpha**2) * eps
        assert np.array_equal(frame.latent, z)
        assert np.array_equal(generate_scene(cfg, t).latent, frame.latent)
    assert len(generate_frames(cfg, 0)) == 1
    with pytest.raises(ConfigError):
        generate_frames(cfg, -1)
    with pytest.raises(ConfigError):
        generate_scene(cfg, -1)


def test_alpha_zero_gives_independent_frames():
    cfg = cfg_with(alpha=0.0)
    z0 = generate_scene(cfg, 0).latent.ravel()
    z1 = generate_scene(cfg, 1).latent.ravel()
    assert abs(np.corrcoef(z0, z1)[0, 1]) < 0.05


def test_ar1_autocorrelation_matches_analytic_decay():
    # Sample correlation over >= 10^4 cells against the AR(1) oracle alpha^t.
    cfg = cfg_with(channels=16, height=128, width=128, alpha=0.8, seed=3)
    z0 = generate_scene(cfg, 0).latent.ravel()
    z5 = generate_scene(cfg, 5).latent.ravel()
    assert z0.size >= 10_000
    r = np.corrcoef(z0, z5)[0, 1]
    assert r == pytest.approx(cfg.alpha**5, abs=0.06)


def test_observe_perfect_correlation_is_latent_exactly():
    cfg = cfg_with(rho=1.0, sigma_obs=0.0, visibility_overlap=1.0)
    scene = generate_scene(cfg, 0)
    for agent in range(cfg.num_agents):
        f = observe(scene, agent, cfg)
        assert np.array_equal(f.values, scene.latent.astype(np.float32))


def test_observe_zero_correlation():
    cfg = cfg_with(rho=0.0)
    scene = generate_scene(cfg, 0)
    r = empirical_correlation(observe(scene, 0, cfg), observe(scene, 1, cfg), full_mask(cfg))
    assert abs(r) < 0.05


def test_observe_rho_squared_cross_correlation():
    # corr(rho Z + s n1, rho Z + s n2) = rho^2 with s = sqrt(1 - rho^2).
    cfg = cfg_with(rho=0.9, channels=16, height=128, width=128, seed=5)
    scene = generate_scene(cfg, 0)
    a, b = observe(scene, 0, cfg), observe(scene, 1, cfg)
    assert cfg.height * cfg.width >= 10_000
    r = empirical_correlation(a, b, covisible_mask(cfg, 0, 1))
    assert r == pytest.approx(0.81, abs=0.03)


def test_observation_noise_dilutes_cross_correlation():
    # With measurement noise the Pearson identity becomes rho^2/(1+sigma^2).
    cfg = cfg_with(rho=0.9, sigma_obs=1.0, channels=16, height=128, width=128, seed=5)
    scene = generate_scene(cfg, 0)
    r = empirical_correlation(observe(scene, 0, cfg), observe(scene, 1, cfg), full_mask(cfg))
    assert r == pytest.approx(0.81 / 2.0, abs=0.03)


def test_cross_correlation_monotone_in_rho():
    values = []
    for rho in (0.0, 0.3, 0.6, 0.9):
        cfg = cfg_with(rho=rho, channels=16, height=128, width=128, seed=5)
        scene = generate_scene(cfg, 0)
        values.append(
            empirical_correlation(observe(scene, 0, cfg), observe(scene, 1, cfg), full_mask(cfg))
        )
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_observe_determinism_and_agent_validation():
    cfg = cfg_with()
    scene = generate_scene(cfg, 1)
    assert np.array_equal(observe(scene, 0, cfg).values, observe(scene, 0, cfg).values)
    with pytest.raises(ConfigError):
        observe(scene, 2, cfg)


def test_visibility_overlap_fraction_and_private_regions():
    cfg = cfg_with(visibility_overlap=0.5, height=32, width=32)
    co = covisible_mask(cfg, 0, 1)
    assert co.count() == round(0.5 * 32 * 32)
    v0, v1 = visibility_mask(cfg, 0), visibility_mask(cfg, 1)
    # Private regions are disjoint, so the pairwise overlap is the common prefix.
    assert np.array_equal(v0.bits & v1.bits, co.bits)
    assert v0.count() > co.count()
    cells_outside = observe(generate_scene(cfg, 0), 0, cfg).values[:, ~v0.bits]
    assert np.all(cells_outside == 0.0)


def test_translate_forced_shift():
    f = FeatureMap(np.random.default_rng(0).normal(size=(2, 4, 5)))
    shifted = translate(f, 0, 1)
    assert np.array_equal(shifted.values[:, :, 1:], f.values[:, :, :-1])
    assert np.all(shifted.values[:, :, 0] == 0.0)
    # A full-width shift empties the map.
    assert np.all(translate(f, 0, 5).values == 0.0)


def test_perturb_pose_zero_sigma_is_identity():
    f = FeatureMap(np.random.default_rng(1).normal(size=(2, 8, 8)))
    assert np.array_equal(perturb_pose(f, 0.0, seed=3).values, f.values)
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="sigma_pose must be finite and >= 0"):
            perturb_pose(f, sigma, seed=3)


def test_perturb_pose_clips_offsets_without_changing_the_shift():
    f = FeatureMap(np.random.default_rng(1).normal(size=(2, 8, 6)))
    # Draws of 1e308 * N(0, 1) reach +-inf; the map still comes back empty.
    assert np.all(perturb_pose(f, 1e308, 3).values == 0.0)
    # sigma 6 often draws past the 8x6 map: the clipped shift empties it just
    # as the unclipped one does.
    for seed in range(40):
        draws = np.random.default_rng(seed).normal(0.0, 6.0, size=2)
        dh, dw = (int(np.rint(v)) for v in draws)
        assert np.array_equal(perturb_pose(f, 6.0, seed).values, translate(f, dh, dw).values)


def test_perturb_pose_offset_statistics():
    # Empirical std of the sampled column offset vs sigma = 2, over 1000 seeds.
    f = FeatureMap(np.zeros((1, 3, 3), dtype=np.float32))
    offsets = []
    for seed in range(1000):
        draws = np.random.default_rng(seed).normal(0.0, 2.0, size=2)
        offsets.append(int(np.rint(draws[1])))
        perturb_pose(f, 2.0, seed=seed)  # must not raise for any seed
    std = float(np.std(offsets))
    assert abs(std - 2.0) / 2.0 < 0.15


def test_empirical_correlation_extremes():
    f = FeatureMap(np.random.default_rng(2).normal(size=(3, 16, 16)))
    neg = FeatureMap(-f.values)
    m = Mask.ones(16, 16)
    assert empirical_correlation(f, f, m) == pytest.approx(1.0)
    assert empirical_correlation(f, neg, m) == pytest.approx(-1.0)


def test_empirical_correlation_independent_noise():
    r = np.random.default_rng(3)
    a = FeatureMap(r.normal(size=(1, 100, 100)))
    b = FeatureMap(r.normal(size=(1, 100, 100)))
    assert abs(empirical_correlation(a, b, Mask.ones(100, 100))) < 0.05


def test_empirical_correlation_degenerate_and_preconditions():
    const = FeatureMap(np.ones((1, 4, 4)))
    other = FeatureMap(np.random.default_rng(4).normal(size=(1, 4, 4)))
    with pytest.raises(UndefinedCorrelationError):
        empirical_correlation(const, other, Mask.ones(4, 4))
    bits = np.zeros((4, 4), dtype=bool)
    bits[0, 0] = True
    with pytest.raises(ConfigError):
        empirical_correlation(other, other, Mask(bits))


def test_delay_decorrelates_observations_monotonically():
    cfg = cfg_with(alpha=0.8, rho=0.9, channels=16, height=96, width=96)
    t = 6
    now = observe(generate_scene(cfg, t), 0, cfg)
    m = full_mask(cfg)
    corrs = [
        empirical_correlation(now, observe(generate_scene(cfg, t - d), 0, cfg), m)
        for d in (0, 1, 2, 4)
    ]
    assert corrs[0] == pytest.approx(1.0)
    assert all(lo > hi for lo, hi in zip(corrs, corrs[1:]))


def test_concurrent_generation_matches_sequential():
    # Generation is pure in (config, indices, seeds): running observations
    # across agents and frames on a thread pool must reproduce the
    # sequential results bit-for-bit regardless of scheduling.
    from concurrent.futures import ThreadPoolExecutor

    cfg = cfg_with(channels=4, height=24, width=24)
    jobs = [(agent, t) for agent in range(cfg.num_agents) for t in range(4)]
    sequential = {job: observe(generate_scene(cfg, job[1]), job[0], cfg) for job in jobs}
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = dict(
            zip(
                jobs[::-1],
                pool.map(lambda j: observe(generate_scene(cfg, j[1]), j[0], cfg), jobs[::-1]),
            )
        )
    for job in jobs:
        assert np.array_equal(sequential[job].values, parallel[job].values)


def test_scene_config_streams_are_disjoint():
    cfg = cfg_with()
    eval0 = scene_config(cfg, 0, stream="eval")
    train0 = scene_config(cfg, 0, stream="train")
    assert eval0.seed != train0.seed != cfg.seed
    assert scene_config(cfg, 0).seed == eval0.seed


def test_scenario_file_roundtrip(tmp_path):
    cfg = cfg_with(rho=0.35, visibility_overlap=0.75, seed=99)
    path = tmp_path / "scenario.cfg"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg
    assert path.read_text() == (
        "num_agents = 2\nchannels = 16\nheight = 64\nwidth = 64\nrho = 0.35\n"
        "sigma_obs = 0.0\nvisibility_overlap = 0.75\nalpha = 0.8\nseed = 99\n"
    )


@pytest.mark.parametrize(
    "kw",
    [
        dict(rho=True),
        dict(visibility_overlap=False, sigma_obs=True),
        dict(rho=np.float32(0.35), sigma_obs=np.float32(0.25), alpha=np.float32(0.8)),
        dict(visibility_overlap=np.float64(0.75)),
    ],
)
def test_scenario_real_fields_are_floats_and_survive_the_file(tmp_path, kw):
    cfg = cfg_with(**kw)
    for name in ("rho", "sigma_obs", "visibility_overlap", "alpha"):
        assert type(getattr(cfg, name)) is float
    for name, value in kw.items():
        assert getattr(cfg, name) == float(value)
    path = tmp_path / "scenario.cfg"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_scenario_file_rejects_non_finite_sigma_obs(tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("sigma_obs = nan\n")
    with pytest.raises(ConfigError, match="sigma_obs must be finite and >= 0"):
        load_scenario(path)


def test_scenario_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 3\n")
    with pytest.raises(FormatError):
        load_scenario(path)


def test_scenario_file_rejects_a_non_ascii_byte_naming_its_line(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed = 7\nrho = 0.5 \xe9\n")
    with pytest.raises(FormatError, match=r"latin1.cfg:2: non-ASCII byte 0xe9 at column 11"):
        load_scenario(path)


def test_scenario_file_rejects_a_repeated_key_naming_its_second_line(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("seed = 1\n# seed = 3 is a comment\nrho = 0.5\nseed = 2\n")
    with pytest.raises(FormatError, match=r"twice.cfg:4: repeated scenario key 'seed'"):
        load_scenario(path)


# What the text-file fuzzers insert: the separators, a comment, digits, nan,
# an LF, a lone CR, a NUL and a non-ASCII byte.
TEXT_TOKENS = [b"=", b"#", b",", b"nan", b"\r", b"\n", b"\x00", b"\xff"] + [
    str(digit).encode() for digit in range(10)
]


@st.composite
def mutated_text(draw, data: bytes) -> bytes:
    """data after one to three edits: a byte flipped, a token inserted or a byte deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "delete"]))
        if kind == "insert":
            pos = draw(st.integers(0, len(out)))
            out[pos:pos] = draw(st.sampled_from(TEXT_TOKENS))
        elif out:
            pos = draw(st.integers(0, len(out) - 1))
            if kind == "flip":
                out[pos] ^= draw(st.integers(1, 255))
            else:
                del out[pos]
    return bytes(out)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.cfg"
    save_scenario(cfg_with(num_agents=3, sigma_obs=0.5, visibility_overlap=0.75), path)
    return path, path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_scenario_file_loads_or_raises_format_or_config_error(scenario_file, data):
    # A scenario file that parses gives a ScenarioConfig; one that does not
    # raises FormatError, or ConfigError for a parsed value out of range.
    path, clean = scenario_file
    path.write_bytes(data.draw(mutated_text(clean)))
    try:
        assert isinstance(load_scenario(path), ScenarioConfig)
    except (FormatError, ConfigError):
        pass
