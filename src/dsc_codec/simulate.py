"""Deterministic simulator of correlated per-agent feature maps.

Generative model
----------------
A shared latent field evolves as a stationary AR(1) process over frames:

    Z_0   = smoothed unit-variance Gaussian field
    Z_t   = alpha * Z_{t-1} + sqrt(1 - alpha^2) * eps_t

where every innovation eps_t is an independent smoothed unit field, so the
per-cell marginal stays unit-variance and corr(Z_t, Z_0) = alpha^t. Agent k
observes, on its visible cells,

    F_k = rho * Z_t + sqrt(1 - rho^2) * eta_k + sigma_obs * w_k

with eta_k a private smoothed unit field and w_k white measurement noise.
With sigma_obs = 0 the Pearson correlation between two agents on co-visible
cells is exactly rho^2 (more generally rho^2 / (1 + sigma_obs^2)), which is
what makes the decoder-side-information rate claims checkable.

Smoothing is a 5x5 box blur applied twice with wrap-around boundaries, then
rescaled to exact unit per-cell variance; wrap keeps the field statistics
identical at every cell. All randomness is drawn from streams keyed by
hashing (seed, stream tag, indices), so adding agents or frames never
perturbs existing ones and generation is reproducible under any scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import (
    ConfigError,
    FormatError,
    ShapeMismatchError,
    UndefinedCorrelationError,
    frozen_array,
    require_int,
    require_nonnegative,
    require_unit_interval,
)
from .features import FeatureMap, Mask, require_same_shape, require_spatial_match

# Stream tags for seed derivation. Never renumber: fixtures depend on them.
STREAM_SCENE = 1
STREAM_AGENT = 2
STREAM_OBS = 3
STREAM_POSE = 4
STREAM_EVAL_SCENE = 5
STREAM_TRAIN_SCENE = 6
STREAM_KMEANS = 7

_BLUR_SIZE = 5
# Two passes of a separable 5x5 box give the separable kernel k1 (x) k1 with
# k1 = box*box; per-cell variance of the blurred white field is (sum k1^2)^2,
# so dividing by sum(k1^2) restores exact unit variance under wrap boundaries.
_K1 = np.convolve(np.full(_BLUR_SIZE, 1.0 / _BLUR_SIZE), np.full(_BLUR_SIZE, 1.0 / _BLUR_SIZE))
_FIELD_STD = float(np.sum(_K1 * _K1))


def derive_seed(*parts: int) -> int:
    """Collision-resistant 64-bit stream seed from non-negative integer parts."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        value = int(part)
        if value < 0:
            raise ConfigError(f"seed parts must be non-negative, got {value}")
        h.update(value.to_bytes(16, "little"))
    return int.from_bytes(h.digest(), "little")


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


def _unit_field(rng: np.random.Generator, channels: int, height: int, width: int) -> np.ndarray:
    white = rng.standard_normal((channels, height, width))
    size = (1, _BLUR_SIZE, _BLUR_SIZE)
    smooth = uniform_filter(uniform_filter(white, size=size, mode="wrap"), size=size, mode="wrap")
    return smooth / _FIELD_STD


@dataclass(frozen=True)
class ScenarioConfig:
    """Deterministic description of agents, correlation and codec-facing knobs."""

    num_agents: int = 2
    channels: int = 32
    height: int = 128
    width: int = 128
    rho: float = 0.9
    sigma_obs: float = 0.0
    visibility_overlap: float = 1.0
    alpha: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        # Sizes are stored as Python ints, so numpy integers cannot overflow
        # in later size arithmetic.
        for name, low in (("num_agents", 2), ("channels", 1), ("height", 1), ("width", 1)):
            require_int(name, getattr(self, name), low)
            object.__setattr__(self, name, int(getattr(self, name)))
        require_unit_interval("rho", self.rho)
        require_nonnegative("sigma_obs", self.sigma_obs)
        require_unit_interval("visibility_overlap", self.visibility_overlap)
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0,1), got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class Scene:
    """Shared latent field at one frame index."""

    latent: np.ndarray
    t: int

    def __post_init__(self) -> None:
        arr = frozen_array("scene latent", self.latent, np.float64, (None, None, None))
        object.__setattr__(self, "latent", arr)


def generate_frames(cfg: ScenarioConfig, t_max: int) -> list[Scene]:
    """Latent fields for frames 0..t_max from one walk of the AR(1) chain.

    Element t is the scene at frame t. Callers that need several frames of
    one scene get them all from one walk instead of replaying the chain from
    frame 0 per frame.
    """
    require_int("frame index", t_max, 0)
    z = _unit_field(_rng(cfg.seed, STREAM_SCENE, 0), cfg.channels, cfg.height, cfg.width)
    frames = [Scene(z, 0)]
    innov = np.sqrt(1.0 - cfg.alpha**2)
    for step in range(1, t_max + 1):
        eps = _unit_field(_rng(cfg.seed, STREAM_SCENE, step), cfg.channels, cfg.height, cfg.width)
        z = cfg.alpha * z + innov * eps
        frames.append(Scene(z, step))
    return frames


def generate_scene(cfg: ScenarioConfig, t: int) -> Scene:
    """Latent field at frame t, deterministic in (cfg.seed, t)."""
    return generate_frames(cfg, t)[-1]


def _covisible_cells(cfg: ScenarioConfig) -> int:
    return int(round(cfg.visibility_overlap * cfg.height * cfg.width))


def visibility_mask(cfg: ScenarioConfig, agent_id: int) -> Mask:
    """Agent's visible region: the common co-visible prefix plus a private chunk.

    Cells are indexed row-major. The first round(overlap * H * W) cells are
    visible to every agent; the remainder is split into contiguous per-agent
    chunks, so any two agents share exactly the common prefix.
    """
    require_int("agent_id", agent_id, 0, cfg.num_agents - 1)
    total = cfg.height * cfg.width
    common = _covisible_cells(cfg)
    rest = total - common
    flat = np.zeros(total, dtype=bool)
    flat[:common] = True
    lo = common + (agent_id * rest) // cfg.num_agents
    hi = common + ((agent_id + 1) * rest) // cfg.num_agents
    flat[lo:hi] = True
    return Mask(flat.reshape(cfg.height, cfg.width))


def covisible_mask(cfg: ScenarioConfig, agent_a: int, agent_b: int) -> Mask:
    """Cells visible to both agents."""
    a = visibility_mask(cfg, agent_a)
    b = visibility_mask(cfg, agent_b)
    return Mask(a.bits & b.bits)


def observe(scene: Scene, agent_id: int, cfg: ScenarioConfig) -> FeatureMap:
    """Agent's feature map at the scene's frame; zeros outside its visibility."""
    # visibility_mask checks agent_id before any field is drawn.
    vis = visibility_mask(cfg, agent_id)
    if scene.latent.shape != (cfg.channels, cfg.height, cfg.width):
        raise ShapeMismatchError(
            f"scene latent shape {scene.latent.shape} does not match config "
            f"({cfg.channels},{cfg.height},{cfg.width})"
        )
    eta = _unit_field(
        _rng(cfg.seed, STREAM_AGENT, agent_id, scene.t), cfg.channels, cfg.height, cfg.width
    )
    f = cfg.rho * scene.latent + np.sqrt(1.0 - cfg.rho**2) * eta
    if cfg.sigma_obs > 0.0:
        white = _rng(cfg.seed, STREAM_OBS, agent_id, scene.t).standard_normal(f.shape)
        f = f + cfg.sigma_obs * white
    f = f * vis.bits[np.newaxis, :, :]
    return FeatureMap(f)


def translate(f: FeatureMap, dh: int, dw: int) -> FeatureMap:
    """Shift the map by whole cells, zero-filling vacated cells."""
    out = np.zeros(f.shape, dtype=np.float32)
    h, w = f.height, f.width
    src_h = slice(max(0, -dh), min(h, h - dh))
    src_w = slice(max(0, -dw), min(w, w - dw))
    dst_h = slice(max(0, dh), min(h, h + dh))
    dst_w = slice(max(0, dw), min(w, w + dw))
    if src_h.start < src_h.stop and src_w.start < src_w.stop:
        out[:, dst_h, dst_w] = f.values[:, src_h, src_w]
    return FeatureMap(out)


def perturb_pose(f: FeatureMap, sigma_pose: float, seed: int) -> FeatureMap:
    """Integer translation with offsets round(Normal(0, sigma_pose)) per axis."""
    require_nonnegative("sigma_pose", sigma_pose)
    if sigma_pose == 0.0:
        return f
    offsets = np.random.default_rng(seed).normal(0.0, sigma_pose, size=2)
    dh, dw = (int(np.rint(v)) for v in offsets)
    return translate(f, dh, dw)


def empirical_correlation(a: FeatureMap, b: FeatureMap, mask: Mask) -> float:
    """Pearson correlation over masked cells, pooled across channels."""
    require_same_shape(a, b)
    require_spatial_match(a, mask)
    if mask.count() < 2:
        raise ConfigError("correlation needs at least 2 masked cells")
    x = a.values[:, mask.bits].astype(np.float64).ravel()
    y = b.values[:, mask.bits].astype(np.float64).ravel()
    x = x - x.mean()
    y = y - y.mean()
    nx = float(np.sqrt(np.dot(x, x)))
    ny = float(np.sqrt(np.dot(y, y)))
    if nx == 0.0 or ny == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    r = float(np.dot(x, y) / (nx * ny))
    return min(1.0, max(-1.0, r))


def scene_config(cfg: ScenarioConfig, index: int, stream: str = "eval") -> ScenarioConfig:
    """Config for the index-th independent scene of an evaluation or training set."""
    tags = {"eval": STREAM_EVAL_SCENE, "train": STREAM_TRAIN_SCENE}
    if stream not in tags:
        raise ConfigError(f"unknown scene stream {stream!r}")
    require_int("scene index", index, 0)
    return replace(cfg, seed=derive_seed(cfg.seed, tags[stream], index))


# The parser of each scenario-file key, in ScenarioConfig field order.
_SCENARIO_FIELDS = {
    f.name: get_type_hints(ScenarioConfig)[f.name] for f in fields(ScenarioConfig)
}


def save_scenario(cfg: ScenarioConfig, path) -> None:
    """Write the flat key-value scenario file ('key = value' per line)."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in _SCENARIO_FIELDS]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scenario(path) -> ScenarioConfig:
    values: dict[str, object] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _SCENARIO_FIELDS:
                raise FormatError(f"{path}:{lineno}: unknown scenario key {key!r}")
            try:
                values[key] = _SCENARIO_FIELDS[key](value)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return ScenarioConfig(**values)
