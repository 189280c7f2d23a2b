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
encodes each (codec, tau, pose noise, delay) message once. The receiver side
does the same: each message's symbols are rANS-decoded and dequantized once
and feed every requested decoder, conditional and unconditional, and the
receiver's context is built once per scene over the whole map and gathered
at each message's coded cells. The routine returns the scene's links as one
list in walk order: the (pose noise, delay) views in grid order, each view's
links in (tau, codec, decoder) order. A message over budget, or whose
symbols fail to decode, gives one no-link result that every decoder shares.
A single link (run_link) is the routine on a one-point grid; each sweep runs
it once per scene over its whole grid and reads its rows, in (codec, tau,
pose noise, delay, decoder) order, through one fixed permutation of that
list. The entry point - run_link or a sweep - checks the arguments once,
before anything is simulated; the routine does not check them again.

A codec fit has a K-independent part - training scenes, their observations,
the PCA projection, the pruning masks and the k-means sample - and a per-K
part: the k-means codebook and the ridge decoders. Beyond the observations
and the k-means sample, the fit holds one map's or one pair's float64 cells
at a time: the PCA statistics, the sample and the decoder rows are built map
by map or pair by pair, and the sample is freed once the codebooks are
trained. The sample is one (D, S) block, in the column layout Lloyd's
passes read, so k-means takes it without a copy; the decoder pass frees
each codec's rows before the next codec builds its own. A scene walk holds
one latent frame at a time and observes each frame as it is made.
One fit does the first part once and fits the decoders of every size in one
pass over the training pairs; fit_codec is its one-size case, and the
rate-distortion sweep makes one fit for all its sizes and one scene walk per
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
import numbers
from dataclasses import dataclass, fields, replace
from typing import Sequence, get_type_hints

import numpy as np

from .codec import (
    CodecParams,
    DecoderFit,
    decode_latents,
    encode_message,
    fit_conditional_decoder,
    fit_encoder_projection,
    project_cells,
    reconstruct,
    si_context,
)
from .errors import ConfigError, DecodeError, FormatError, InsufficientDataError, ascii_lines
from .errors import require_int, require_nonnegative, require_real, require_unit_interval
from .features import FeatureMap, Mask, apply_mask, elementwise_max, mse
from .pruning import mask_from_scores, score_map
from .quantizer import Codebook, train_codebook
from .simulate import (
    STREAM_KMEANS,
    STREAM_POSE,
    ScenarioConfig,
    _walk_frames,
    derive_seed,
    generate_scene,
    observe,
    perturb_pose,
    scene_config,
)
from .wire import MAX_CELLS

# Frame index all evaluations run at, so delayed senders (delay <= 4) stay in
# range and rate and robustness sweeps see identical data at (sigma=0, delay=0).
DEFAULT_EVAL_T = 4

CSV_HEADER = "tau,K,D,rho,sigma_pose,delay,payload_bytes,recon_mse,fusion_mse,conditional,seed,scenes"

_KMEANS_SAMPLE_LIMIT = 65536
_KMEANS_ITERS = 25


@dataclass(frozen=True)
class LinkResult:
    """Outcome of one directed sender -> receiver exchange.

    A link over budget or whose decode failed leaves the receiver its own feature only.
    """

    payload_bytes: int
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


def _check_grid(
    cfg: ScenarioConfig, taus, sigmas, delays, budget: int | None, scenes: int = 1
) -> None:
    """Raise ConfigError unless a sweep can run this grid; run before any fit.

    Every link sends a message over cfg's whole grid, so a grid of more than
    wire.MAX_CELLS cells, which no message may state, is rejected here too.
    """
    if cfg.height * cfg.width > MAX_CELLS:
        raise ConfigError(
            f"a {cfg.height}x{cfg.width} grid exceeds the wire's {MAX_CELLS} cells per message"
        )
    if not (len(taus) and len(sigmas) and len(delays)):
        raise ConfigError("sweep grids must be non-empty")
    require_int("scenes", scenes, 1)
    for tau in taus:
        require_unit_interval("tau", tau)
    for sigma in sigmas:
        require_nonnegative("sigma_pose", sigma)
    for delay in delays:
        require_real("delay", delay)
        if not (delay >= 0 and (isinstance(delay, numbers.Integral) or float(delay).is_integer())):
            raise ConfigError(f"delay must be a whole number >= 0, got {delay}")
    if budget is not None:
        require_int("budget", budget, 0)


def _fit_codecs(
    cfg: ScenarioConfig, codebook_sizes: Sequence[int], embed_dim: int, train_scenes: int
) -> list[FittedCodec]:
    """One codec per size: the K-independent part once, one decoder pass."""
    for k in codebook_sizes:
        require_int("codebook size", k, 1, 0xFFFF)
    require_int("train_scenes", train_scenes, 1)
    require_int("embed_dim", embed_dim, 1)
    observations: list[list[FeatureMap]] = []
    for s in range(train_scenes):
        cfg_s = scene_config(cfg, s, stream="train")
        scene = generate_scene(cfg_s, 0)
        observations.append([observe(scene, a, cfg_s) for a in range(cfg.num_agents)])
        # The latent is not needed past its observations.
        del scene

    pooled = [f for per_scene in observations for f in per_scene]
    encoder = CodecParams(*fit_encoder_projection(pooled, embed_dim), codebook_hash=0)

    # At tau=0 only all-zero cells are pruned, so each observation is its own
    # pruned sender feature.
    masks = [[mask_from_scores(score_map(f), 0.0) for f in per_scene] for per_scene in observations]
    pairs = [
        (per_scene[j], per_masks[j], per_scene[i])
        for per_scene, per_masks in zip(observations, masks)
        for j, i in itertools.permutations(range(cfg.num_agents), 2)
    ]
    kept = sum(m.count() for per_masks in masks for m in per_masks)
    if not kept:
        raise InsufficientDataError("no training cell survives pruning")
    # The k-means sample is every step-th latent of the maps' kept cells in
    # order, so it holds ceil(kept / step) latents. It is drawn map by map
    # straight into one (D, S) block, so only one map's latents are held
    # besides it: a map whose first latent is number start keeps its rows
    # from offset (-start) % step on. Lloyd's passes read the sample column
    # by column, so kmeans_fit reads block.T without a transposed copy.
    step = max(1, -(-kept // _KMEANS_SAMPLE_LIMIT))
    block = np.empty((embed_dim, -(-kept // step)))
    start = filled = 0
    for f, m in zip(pooled, itertools.chain.from_iterable(masks)):
        if m.bits.any():
            latents = project_cells(f.cell_vectors(m), encoder, overwrite=True)
            rows = latents[(-start) % step :: step]
            block[:, filled : filled + len(rows)] = rows.T
            filled += len(rows)
            start += latents.shape[0]
    # The last map's latents are not read again; free them before k-means.
    del latents, rows
    seed = derive_seed(cfg.seed, STREAM_KMEANS)
    codebooks = [train_codebook(block.T, k, _KMEANS_ITERS, seed) for k in codebook_sizes]
    del block
    codecs = [(replace(encoder, codebook_hash=cb.version_hash), cb) for cb in codebooks]
    fits = fit_conditional_decoder(pairs, codecs)
    return [
        FittedCodec(params=params.with_decoder_fit(fit), codebook=codebook, decoder_fit=fit)
        for (params, codebook), fit in zip(codecs, fits)
    ]


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
    codebook_size outside [1, 65535] (the codebook's 16-bit size field), or
    an embed_dim or train_scenes that is not an integer >= 1, raises
    ConfigError before any scene is simulated; training scenes with
    no nonzero cell raise InsufficientDataError. rd_sweep makes the same fit
    for all its sizes at once.
    """
    return _fit_codecs(cfg, [codebook_size], embed_dim, train_scenes)[0]


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
) -> list[LinkResult]:
    """Every (sigma, delay, tau, codec, decoder) link of one scene at frame t, in that order.

    The list is the walk order: the (sigma, delay) views in grid order, each
    view's links in (tau, codec, decoder) order (_view_links), so repeated
    grid entries give repeated links. The caller has checked the arguments.
    The chain is walked once, holding one latent frame at a time: the
    receiver is observed once and the sender once per distinct frame
    max(0, t - delay), each as its frame is made. Each (sigma, delay) sender
    view is scored once, each (sigma, delay, tau, codec) message is encoded
    once, its latents are decoded once and reconstructed by every decoder in
    decoders. When a conditional decoder is requested, the receiver's context
    is built once at every cell for all codecs; a link takes the rows at its
    coded cells (the whole context when every cell is coded), which equal
    si_context at its mask bit for bit.
    """
    delays = [int(delay) for delay in delays]

    # One walk of the chain, holding one latent frame: each frame is
    # observed as it is made, by the sender where a delay sends it and by
    # the receiver at t.
    sent = {max(0, t - delay) for delay in delays}
    stale = {}
    for scene in _walk_frames(cfg, t):
        if scene.t in sent:
            stale[scene.t] = observe(scene, sender, cfg)
    f_local = observe(scene, receiver, cfg)
    del scene
    pose_seed = derive_seed(cfg.seed, STREAM_POSE, sender, t)
    everywhere = Mask.ones(f_local.height, f_local.width)
    context = si_context(f_local, everywhere) if any(decoders) else None

    links = []
    for sigma in sigmas:
        for delay in delays:
            links += _view_links(
                f_local, stale[max(0, t - delay)], sigma, pose_seed, context, codecs, taus,
                budget, decoders,
            )
    return links


def _view_links(
    f_local: FeatureMap,
    f_stale: FeatureMap,
    sigma: float,
    pose_seed: int,
    context: np.ndarray | None,
    codecs: Sequence[tuple[CodecParams, Codebook]],
    taus: Sequence[float],
    budget: int | None,
    decoders: Sequence[bool],
) -> list[LinkResult]:
    """Every (tau, codec, decoder) link of one sender view, in that order.

    The view is f_stale shifted by the pose noise sigma. What a view builds
    (its maps, messages and reconstructions) is freed on return, before the
    next view is built. A message over budget, or whose latents fail to
    decode, gives one no-link result that every decoder shares: the receiver
    keeps its own feature and the reconstruction counts as zero.
    """
    f_sender = perturb_pose(f_stale, sigma, pose_seed)
    scores = score_map(f_sender)
    oracle = fuse_all(f_local, [f_sender])
    links = []
    for tau in taus:
        mask = mask_from_scores(scores, tau)
        pruned = apply_mask(f_sender, mask)
        for params, cb in codecs:
            msg = encode_message(pruned, mask, params, cb)
            payload = len(msg.to_bytes())
            within = budget is None or payload <= budget
            try:
                latents = decode_latents(msg, params, cb) if within else None
            except DecodeError:
                latents = None
            if latents is None:
                # A message sent within budget failed to decode; one over budget was dropped.
                recon_mse = mse(FeatureMap.zeros(*f_sender.shape), pruned)
                no_link = LinkResult(payload, within, recon_mse, mse(f_local, oracle), within)
                links += [no_link] * len(decoders)
                continue
            flat = mask.bits.ravel()
            rows = context if context is None or flat.all() else context[flat]
            recons = [
                reconstruct(msg, latents, params, rows if conditional else None)
                for conditional in decoders
            ]
            for recon in recons:
                fused = fuse_all(f_local, [recon])
                links.append(LinkResult(payload, True, mse(recon, pruned), mse(fused, oracle)))
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
    outside [0, 1], a sigma_pose that is not finite and >= 0, a delay that
    is not a whole number >= 0, a budget that is neither None nor an
    integer >= 0, or a cfg grid of more than wire.MAX_CELLS cells raises
    ConfigError before anything is simulated.
    """
    require_int("t", t, 0)
    require_int("sender", sender, 0, cfg.num_agents - 1)
    require_int("receiver", receiver, 0, cfg.num_agents - 1)
    if sender == receiver:
        raise ConfigError("sender and receiver must differ")
    _check_grid(cfg, (tau,), (sigma_pose,), (delay,), budget)
    [link] = _scene_links(
        cfg, t, sender, receiver, [(params, cb)], (tau,), (sigma_pose,), (delay,), budget,
        (conditional,),
    )
    return link


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
    1 -> receiver 0 and returns the rows in (codec, tau, sigma, delay,
    decoder) order; a row reads its link of each scene's walk-order list
    (sigma, delay, tau, codec, decoder) through one fixed permutation.
    scenes that is not an integer >= 1 raises ConfigError; the grid is
    validated before any simulation.
    """
    _check_grid(cfg, taus, sigmas, delays, budget, scenes)
    per_scene = [
        _scene_links(
            scene_config(cfg, s, stream="eval"), DEFAULT_EVAL_T, 1, 0,
            codecs, taus, sigmas, delays, budget, decoders,
        )
        for s in range(scenes)
    ]
    walk = (len(sigmas), len(delays), len(taus), len(codecs), len(decoders))
    order = np.arange(np.prod(walk)).reshape(walk).transpose(3, 2, 0, 1, 4).ravel()
    grid = itertools.product(codecs, taus, sigmas, delays, decoders)
    rows = []
    for ((params, cb), tau, sigma, delay, conditional), i in zip(grid, order):
        links = [scene[i] for scene in per_scene]
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

    Every argument is validated before any simulation. One fit serves every
    size and its training data is released before evaluation; each
    evaluation scene is simulated once for the whole grid.
    A row equals evaluate_point with the codec that fit_codec gives at that
    size, embed_dim and train_scenes (fit_codec's train_scenes defaults to 8,
    rd_sweep's to 6).
    """
    if not len(codebook_sizes):
        raise ConfigError("sweep grids must be non-empty")
    require_int("scenes_per_point", scenes_per_point, 1)
    _check_grid(cfg, taus, (0.0,), (0,), budget)
    # _fit_codecs checks its own arguments before it simulates anything.
    fits = _fit_codecs(cfg, codebook_sizes, embed_dim, train_scenes)
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

    A non-ASCII line, a wrong or missing header, a wrong field count, or a
    field that does not parse raises FormatError naming path:line.
    """
    lines = ascii_lines(path)
    lineno, header = next(lines, (1, ""))
    if header.strip() != CSV_HEADER:
        raise FormatError(f"{path}:{lineno}: unexpected CSV header: {header.strip()!r}")
    rows = []
    for lineno, text in lines:
        line = text.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_COLUMN_TYPES):
            raise FormatError(
                f"{path}:{lineno}: expected {len(_COLUMN_TYPES)} CSV fields, "
                f"got {len(parts)}: {line!r}"
            )
        try:
            rows.append(SweepRow(*(parse(part) for parse, part in zip(_COLUMN_TYPES, parts))))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
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
