"""Link-level orchestration: budgeted communication, fusion, sweeps, CSV.

A link run generates the sender and receiver observations (with optional
pose noise and frame delay on the sender), prunes, encodes, measures the
serialized message length, decodes with the receiver's local feature, and
reports two metrics:

  * reconstruction MSE against the pruned sender feature (the codec target),
  * fusion-fidelity MSE: max-fusion with the reconstruction versus
    max-fusion with the uncompressed, unpruned sender feature - the fused
    result an unconstrained link would have produced. With the whole
    communication path replaced by an identity channel this is exactly 0.

Every link is evaluated by one per-scene routine over a grid of codecs,
pruning thresholds, pose noises and delays. It walks the scene's AR(1) chain
once, observes the receiver once and the sender once per distinct (delayed)
frame, scores each (pose noise, delay) sender view once, and prunes and
encodes each (codec, tau, pose noise, delay) message once; that one message
then feeds every requested decoder, conditional and unconditional. A single
link (run_link) is the routine on a one-point grid; each sweep runs it once
per scene over its whole grid.

A codec fit has a K-independent part - training scenes, their observations,
the PCA projection, the pruning masks and the pooled latents - and a per-K
part: the k-means codebook and the ridge decoders. fit_codec does both; the
rate-distortion sweep builds the training set once and fits every codebook
size on it, so one sweep does one training set and one scene walk per
evaluation scene.

Sweeps aggregate links over independently seeded scenes through one
evaluation body: it runs the per-scene routine once per evaluation scene at
DEFAULT_EVAL_T for sender 1 -> receiver 0 and returns SweepRow, the
scene-order mean of each grid point. evaluate_point, the rate-distortion
sweep and the robustness sweep are grid specs on top of it, so the
unperturbed robustness row is equal to the rate-distortion row and to
evaluate_point at the same knobs. Every row carries the full knob tuple; its
CSV columns are SweepRow's fields in order, and CSVs are emitted in sorted
key order, making them reproducible byte-for-byte.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, fields
from typing import Sequence, get_type_hints

import numpy as np

from .codec import (
    CodecParams,
    DecoderFit,
    decode_message,
    encode_message,
    fit_conditional_decoder,
    fit_encoder_projection,
    project_cells,
)
from .errors import ConfigError, DecodeError, InsufficientDataError
from .errors import require_int, require_nonnegative, require_unit_interval
from .features import FeatureMap, Mask, apply_mask, elementwise_max, mse
from .pruning import mask_from_scores, score_map
from .quantizer import Codebook, train_codebook
from .simulate import (
    STREAM_KMEANS,
    STREAM_POSE,
    ScenarioConfig,
    derive_seed,
    generate_frames,
    generate_scene,
    observe,
    perturb_pose,
    scene_config,
)

# Frame index all evaluations run at, so delayed senders (delay <= 4) stay in
# range and rate and robustness sweeps see identical data at (sigma=0, delay=0).
DEFAULT_EVAL_T = 4

CSV_HEADER = "tau,K,D,rho,sigma_pose,delay,payload_bytes,recon_mse,fusion_mse,conditional,seed,scenes"

_KMEANS_SAMPLE_LIMIT = 65536
_KMEANS_ITERS = 25


@dataclass(frozen=True)
class LinkResult:
    """Outcome of one directed sender -> receiver exchange."""

    sender: int
    receiver: int
    payload_bytes: int
    budget: int | None
    within_budget: bool
    recon_mse: float
    fusion_mse: float
    failed: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One knob setting averaged over scenes; a CSV row in CSV_HEADER order."""

    tau: float
    codebook_size: int
    embed_dim: int
    rho: float
    sigma_pose: float
    delay: int
    payload_bytes: float
    recon_mse: float
    fusion_mse: float
    conditional: int
    seed: int
    scenes: int

    def as_csv(self) -> str:
        return ",".join(_format_value(getattr(self, f.name)) for f in fields(self))

    def sort_key(self):
        return (
            self.tau,
            self.codebook_size,
            self.embed_dim,
            self.sigma_pose,
            self.delay,
            -self.conditional,
        )


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# The parser of each CSV column, in SweepRow field (= CSV_HEADER) order.
_COLUMN_TYPES = tuple(get_type_hints(SweepRow)[f.name] for f in fields(SweepRow))


@dataclass(frozen=True)
class FittedCodec:
    """A trained codec plus the decoder fit diagnostics."""

    params: CodecParams
    codebook: Codebook
    decoder_fit: DecoderFit


def _check_taus(taus: Sequence[float]) -> None:
    for tau in taus:
        require_unit_interval("tau", tau)


@dataclass(frozen=True)
class _TrainingSet:
    """The K-independent part of a codec fit.

    The PCA projection and mean, the k-means sample of training latents
    that survive pruning and its seed, and the (sender, its tau=0 mask,
    receiver) decoder pairs. One training set serves a codec fit at every
    codebook size.
    """

    projection: np.ndarray
    mean: np.ndarray
    kmeans_sample: np.ndarray
    kmeans_seed: int
    pairs: list[tuple[FeatureMap, Mask, FeatureMap]]


def _training_set(cfg: ScenarioConfig, embed_dim: int, train_scenes: int) -> _TrainingSet:
    require_int("train_scenes", train_scenes, 1)
    require_int("embed_dim", embed_dim, 1)
    observations: list[list[FeatureMap]] = []
    for s in range(train_scenes):
        cfg_s = scene_config(cfg, s, stream="train")
        scene = generate_scene(cfg_s, 0)
        observations.append([observe(scene, a, cfg_s) for a in range(cfg.num_agents)])

    pooled = [f for per_scene in observations for f in per_scene]
    projection, mean = fit_encoder_projection(pooled, embed_dim)
    encoder = CodecParams(projection=projection, mean=mean, codebook_hash=0)

    masks = [
        [mask_from_scores(score_map(f), 0.0) for f in per_scene]
        for per_scene in observations
    ]
    latent_blocks = []
    for per_scene, per_masks in zip(observations, masks):
        for f, m in zip(per_scene, per_masks):
            flat = m.bits.ravel()
            if flat.any():
                latent_blocks.append(project_cells(f.cell_vectors()[flat], encoder))
    if not latent_blocks:
        raise InsufficientDataError("no training cell survives pruning")
    latents = np.concatenate(latent_blocks, axis=0)
    step = max(1, -(-latents.shape[0] // _KMEANS_SAMPLE_LIMIT))

    # At tau=0 only all-zero cells are pruned, so each observation is its own
    # pruned sender feature.
    pairs = []
    for per_scene, per_masks in zip(observations, masks):
        for j, i in itertools.permutations(range(cfg.num_agents), 2):
            pairs.append((per_scene[j], per_masks[j], per_scene[i]))
    return _TrainingSet(
        projection=projection,
        mean=mean,
        kmeans_sample=latents[::step],
        kmeans_seed=derive_seed(cfg.seed, STREAM_KMEANS),
        pairs=pairs,
    )


def _fit_on(training: _TrainingSet, codebook_size: int) -> FittedCodec:
    """Codebook and ridge decoders of one codebook size on a shared training set."""
    codebook = train_codebook(
        training.kmeans_sample, codebook_size, _KMEANS_ITERS, training.kmeans_seed
    )
    params = CodecParams(
        projection=training.projection,
        mean=training.mean,
        codebook_hash=codebook.version_hash,
    )
    fit = fit_conditional_decoder(training.pairs, params, codebook)
    return FittedCodec(params=params.with_decoder_fit(fit), codebook=codebook, decoder_fit=fit)


def fit_codec(
    cfg: ScenarioConfig,
    codebook_size: int = 64,
    embed_dim: int = 64,
    train_scenes: int = 8,
) -> FittedCodec:
    """Fit projection, codebook and decoders on seeded training scenes.

    Training scenes come from a dedicated seed stream, so evaluation scenes
    drawn from the default stream are held out. The codebook is trained on
    the latents of cells that survive pruning at tau=0 (every nonzero cell);
    decoder rows use every ordered agent pair of every training scene. A
    codebook_size, embed_dim or train_scenes that is not an integer >= 1
    raises ConfigError before any scene is simulated; training scenes with
    no nonzero cell raise InsufficientDataError.
    """
    require_int("codebook size", codebook_size, 1)
    training = _training_set(cfg, embed_dim, train_scenes)
    return _fit_on(training, codebook_size)


def fuse_all(f_local: FeatureMap, reconstructions: Sequence[FeatureMap]) -> FeatureMap:
    """Element-wise max over the local feature and every reconstruction."""
    fused = f_local
    for recon in reconstructions:
        fused = elementwise_max(fused, recon)
    return fused


def _scene_links(
    cfg: ScenarioConfig,
    t: int,
    sender: int,
    receiver: int,
    codecs: Sequence[tuple[CodecParams, Codebook]],
    taus: Sequence[float],
    sigmas: Sequence[float],
    delays: Sequence[int],
    budget: int | None,
    decoders: Sequence[bool],
) -> dict[tuple[int, int, int, int, bool], LinkResult]:
    """Every (codec, tau, sigma, delay, conditional) link of one scene at frame t.

    Results are keyed by grid position (codec, tau, sigma and delay index)
    and decoder flag, so repeated grid entries give repeated links.
    Arguments are validated before any simulation. The chain is walked once,
    the receiver is observed once and the sender once per distinct frame
    max(0, t - delay); each (sigma, delay) sender view is scored once, each
    (codec, tau, sigma, delay) message is encoded once and decoded by every
    decoder in decoders.
    """
    require_int("t", t, 0)
    require_int("sender", sender, 0, cfg.num_agents - 1)
    require_int("receiver", receiver, 0, cfg.num_agents - 1)
    if sender == receiver:
        raise ConfigError("sender and receiver must differ")
    _check_taus(taus)
    for sigma in sigmas:
        require_nonnegative("sigma_pose", sigma)
    for delay in delays:
        if not (delay >= 0 and float(delay).is_integer()):
            raise ConfigError(f"delay must be a whole number >= 0, got {delay}")
    delays = [int(delay) for delay in delays]

    frames = generate_frames(cfg, t)
    f_local = observe(frames[t], receiver, cfg)
    stale = {}
    for delay in delays:
        t_send = max(0, t - delay)
        if t_send not in stale:
            stale[t_send] = observe(frames[t_send], sender, cfg)
    pose_seed = derive_seed(cfg.seed, STREAM_POSE, sender, t)

    links = {}
    for si, sigma in enumerate(sigmas):
        for di, delay in enumerate(delays):
            f_sender = perturb_pose(stale[max(0, t - delay)], sigma, pose_seed)
            scores = score_map(f_sender)
            oracle = fuse_all(f_local, [f_sender])
            for ti, tau in enumerate(taus):
                mask = mask_from_scores(scores, tau)
                pruned = apply_mask(f_sender, mask)
                for ci, (params, cb) in enumerate(codecs):
                    msg = encode_message(pruned, mask, params, cb)
                    payload = len(msg.to_bytes())
                    within = budget is None or payload <= budget
                    for conditional in decoders:
                        failed = False
                        recon = FeatureMap.zeros(*f_sender.shape)
                        if within:
                            try:
                                recon = decode_message(
                                    msg, params, cb, f_local=f_local if conditional else None
                                )
                            except DecodeError:
                                failed = True
                        fused = fuse_all(f_local, [recon] if (within and not failed) else [])
                        links[(ci, ti, si, di, conditional)] = LinkResult(
                            sender=sender,
                            receiver=receiver,
                            payload_bytes=payload,
                            budget=budget,
                            within_budget=within,
                            recon_mse=mse(recon, pruned),
                            fusion_mse=mse(fused, oracle),
                            failed=failed,
                        )
    return links


def run_link(
    cfg: ScenarioConfig,
    t: int,
    sender: int,
    receiver: int,
    params: CodecParams,
    cb: Codebook,
    tau: float = 0.0,
    sigma_pose: float = 0.0,
    delay: int = 0,
    budget: int | None = None,
    conditional: bool = True,
) -> LinkResult:
    """One directed exchange at frame t with optional sender-side perturbations.

    The sender transmits its feature from frame max(0, t - delay), optionally
    pose-shifted; the receiver decodes against its current local feature. A
    link whose serialized message exceeds the budget is dropped (truncation
    would break entropy decodability), as is a link whose decode fails; the
    receiver then falls back to its local feature only. A t that is not an
    integer >= 0, a sender or receiver that is not an agent index, a tau
    outside [0, 1], a sigma_pose that is not finite and >= 0, or a delay
    that is not a whole number >= 0 raises ConfigError before anything is
    simulated.
    """
    links = _scene_links(
        cfg, t, sender, receiver, [(params, cb)], (tau,), (sigma_pose,), (delay,), budget,
        (conditional,),
    )
    return links[(0, 0, 0, 0, conditional)]


def _sweep(
    cfg: ScenarioConfig,
    codecs: Sequence[tuple[CodecParams, Codebook]],
    taus: Sequence[float],
    sigmas: Sequence[float],
    delays: Sequence[int],
    decoders: Sequence[bool],
    scenes: int,
    budget: int | None,
) -> list[SweepRow]:
    """The scene-order mean row of every (codec, tau, sigma, delay, decoder) point.

    Runs _scene_links once per evaluation scene at DEFAULT_EVAL_T for sender
    1 -> receiver 0 and returns the rows in that grid order. scenes that is
    not an integer >= 1 raises ConfigError; the grid is validated before any
    simulation.
    """
    require_int("scenes", scenes, 1)
    per_scene = [
        _scene_links(
            scene_config(cfg, s, stream="eval"), DEFAULT_EVAL_T, 1, 0,
            codecs, taus, sigmas, delays, budget, decoders,
        )
        for s in range(scenes)
    ]
    grid = itertools.product(
        enumerate(codecs), enumerate(taus), enumerate(sigmas), enumerate(delays), decoders
    )
    rows = []
    for (ci, (params, cb)), (ti, tau), (si, sigma), (di, delay), conditional in grid:
        links = [scene[(ci, ti, si, di, conditional)] for scene in per_scene]
        rows.append(
            SweepRow(
                tau=float(tau),
                codebook_size=cb.size,
                embed_dim=params.embed_dim,
                rho=cfg.rho,
                sigma_pose=float(sigma),
                delay=int(delay),
                payload_bytes=float(np.mean([r.payload_bytes for r in links])),
                recon_mse=float(np.mean([r.recon_mse for r in links])),
                fusion_mse=float(np.mean([r.fusion_mse for r in links])),
                conditional=int(conditional),
                seed=cfg.seed,
                scenes=scenes,
            )
        )
    return rows


def evaluate_point(
    cfg: ScenarioConfig,
    params: CodecParams,
    cb: Codebook,
    tau: float,
    sigma_pose: float = 0.0,
    delay: int = 0,
    scenes: int = 3,
    conditional: bool = True,
    budget: int | None = None,
) -> SweepRow:
    """The sweep row of mean link metrics over independently seeded evaluation scenes."""
    return _sweep(
        cfg, [(params, cb)], (tau,), (sigma_pose,), (delay,), (conditional,), scenes, budget
    )[0]


def rd_sweep(
    cfg: ScenarioConfig,
    taus: Sequence[float] = tuple(v / 10 for v in range(10)),
    codebook_sizes: Sequence[int] = (64,),
    embed_dim: int = 64,
    scenes_per_point: int = 3,
    train_scenes: int = 6,
    budget: int | None = None,
) -> list[SweepRow]:
    """Rate-distortion grid over codebook size and tau, one row per pair.

    Every argument is validated before any simulation. The training set is
    built once and shared by the codec fit of every size; each evaluation
    scene is simulated once for the whole grid. A row equals evaluate_point
    with the codec that fit_codec gives at that size.
    """
    if not taus or not codebook_sizes:
        raise ConfigError("sweep grids must be non-empty")
    _check_taus(taus)
    for k in codebook_sizes:
        require_int("codebook size", k, 1)
    require_int("scenes_per_point", scenes_per_point, 1)
    # _training_set checks its own arguments before it simulates anything.
    training = _training_set(cfg, embed_dim, train_scenes)
    fits = [_fit_on(training, k) for k in codebook_sizes]
    codecs = [(f.params, f.codebook) for f in fits]
    return _sweep(cfg, codecs, taus, (0.0,), (0,), (True,), scenes_per_point, budget)


def robustness_sweep(
    cfg: ScenarioConfig,
    sigmas: Sequence[float],
    delays: Sequence[int],
    params: CodecParams,
    cb: Codebook,
    tau: float = 0.0,
    scenes: int = 3,
) -> list[SweepRow]:
    """Full sigma x delay grid, one row per combination per decoder variant.

    Each combination is decoded twice from one message - conditional and
    unconditional decoding on identical scene data - so the side-information
    benefit under perturbation can be read off row pairs. Each scene is
    simulated once for the whole grid; a row is the scene-order mean of the
    same links run_link evaluates, so it equals evaluate_point at its knobs.
    """
    if not sigmas or not delays:
        raise ConfigError("sigma and delay lists must be non-empty")
    return _sweep(cfg, [(params, cb)], (tau,), sigmas, delays, (True, False), scenes, None)


def write_csv(rows: Sequence[SweepRow], path_or_handle) -> None:
    """Emit the documented CSV schema with rows in sorted key order."""
    ordered = sorted(rows, key=SweepRow.sort_key)
    text = "\n".join([CSV_HEADER] + [row.as_csv() for row in ordered]) + "\n"
    if isinstance(path_or_handle, io.TextIOBase):
        path_or_handle.write(text)
    else:
        with open(path_or_handle, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def read_csv(path) -> list[SweepRow]:
    """Parse a sweep CSV in the documented schema.

    A line that is not ASCII, has the wrong number of fields or holds a field
    that does not parse raises ConfigError naming the line.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"line {lineno}: non-ASCII byte {raw[exc.start]:#04x} at column {exc.start + 1}"
            ) from None
        if lineno == 1:
            if line != CSV_HEADER:
                raise ConfigError(f"unexpected CSV header: {line!r}")
            continue
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_COLUMN_TYPES):
            raise ConfigError(
                f"line {lineno}: expected {len(_COLUMN_TYPES)} CSV fields, "
                f"got {len(parts)}: {line!r}"
            )
        try:
            rows.append(SweepRow(*(parse(part) for parse, part in zip(_COLUMN_TYPES, parts))))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return rows


def summarize_rows(rows: Sequence[SweepRow]) -> str:
    """Compact per-(K, D, conditional) summary of a sweep CSV."""
    groups: dict[tuple[int, int, int], list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.codebook_size, row.embed_dim, row.conditional), []).append(row)
    lines = ["K,D,conditional,rows,payload_min,payload_max,recon_min,recon_max"]
    for key in sorted(groups):
        members = groups[key]
        payloads = [r.payload_bytes for r in members]
        recons = [r.recon_mse for r in members]
        lines.append(
            ",".join(
                [
                    str(key[0]),
                    str(key[1]),
                    str(key[2]),
                    str(len(members)),
                    _format_value(min(payloads)),
                    _format_value(max(payloads)),
                    _format_value(min(recons)),
                    _format_value(max(recons)),
                ]
            )
        )
    return "\n".join(lines) + "\n"
