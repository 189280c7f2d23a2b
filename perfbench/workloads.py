"""The benchmark's four workloads, their correctness checks and their metrics.

Every workload starts from the acceptance codec: ``fit_codec`` on the
acceptance scenario (2 agents, 32x128x128, rho=0.9, alpha=0.8, K=64, D=16,
6 training scenes), built from the run's seed. Fitting it is the set-up, timed
``SETUP_REPEATS`` times; the median is ``setup_s``.

* link-dense / link-sparse: closed loop, one client. Team frames on a 4-agent
  scenario at t=0, one eval scene per frame, built outside the timers. Each
  agent encodes once and broadcasts (the message does not depend on the
  receiver); each receiver parses and conditionally decodes its three
  neighbours' messages and fuses them. tau=0 codes every cell; tau=0.8 keeps
  a few percent of the cells, as in selective spatial sharing.
* sweep-robust: ``robustness_sweep`` on the acceptance grid.
* sweep-k: ``rd_sweep`` over K in {4, 16, 64, 256}.

Public entry points are called by keyword, so reordering their parameters
does not break the benchmark. Correctness checks never run inside a timed
interval.
"""

from __future__ import annotations

import hashlib
import io
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from dsc_codec import codec as codec_mod
from dsc_codec import features, pipeline, pruning, quantizer, simulate, wire
from dsc_codec.rans import FrequencyTable, rans_decode
from spans import Tracer, installed
from wiresections import SECTIONS, message_sections


@dataclass(frozen=True)
class LinkSpec:
    tau: float
    # Frames whose outputs are checked and averaged into the byte and MSE
    # metrics. tau=0.8 keeps 1-15% of the cells depending on the scene, so
    # link-sparse needs more scenes than link-dense for steady means.
    frames: int


LINKS = {"link-dense": LinkSpec(tau=0.0, frames=12), "link-sparse": LinkSpec(tau=0.8, frames=24)}

SETUP_REPEATS = 3
TEAM_AGENTS = 4
# p90 needs at least ten samples beyond it.
MIN_ENCODES = 100
SWEEP_SIGMAS = (0.0, 1.0, 2.0, 4.0)
SWEEP_DELAYS = (0, 1, 2, 4)
SWEEP_SCENES = 2
K_GRID = (4, 16, 64, 256)
TAU_GRID = (0.0, 0.3, 0.5, 0.7, 0.9)


def acceptance_config(seed: int) -> simulate.ScenarioConfig:
    return simulate.ScenarioConfig(
        num_agents=2,
        channels=32,
        height=128,
        width=128,
        rho=0.9,
        sigma_obs=0.0,
        visibility_overlap=1.0,
        alpha=0.8,
        seed=seed,
    )


def fit_acceptance_codec(seed: int):
    return pipeline.fit_codec(
        cfg=acceptance_config(seed), codebook_size=64, embed_dim=16, train_scenes=6
    )


class Checks:
    """Collects failed correctness checks; any failure invalidates the run."""

    def __init__(self) -> None:
        self.failed: list[str] = []
        self.passed = 0

    def require(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed.append(what)

    @property
    def ok(self) -> bool:
        return not self.failed


@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    metrics: dict[str, float] = field(default_factory=dict)
    # (name, value, unit, better, note) rows of the human-readable report.
    report: list[tuple[str, float, str, str, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    failure_examples: dict[str, str] = field(default_factory=dict)


def _hexdigest(chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _ms(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) in milliseconds; q=50 is the median."""
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Correctness checks


def check_message(data: bytes, pruned, mask, fitted, checks: Checks, label: str) -> None:
    """Round trip, section sum and coded symbols of one serialized message."""
    msg = wire.Message.from_bytes(data)
    checks.require(msg.to_bytes() == data, f"{label}: from_bytes/to_bytes round trip")
    try:
        total = sum(message_sections(data).values())
    except ValueError as exc:
        checks.require(False, f"{label}: wire sections unreadable ({exc})")
    else:
        checks.require(total == len(data), f"{label}: sections sum {total} != {len(data)} bytes")
    kept = mask.bits.ravel()
    expected = np.empty(0, dtype=np.int64)
    if kept.any():
        latents = codec_mod.project_cells(pruned.cell_vectors()[kept], fitted.params)
        expected = quantizer.quantize_map(latents, fitted.codebook)
    symbols = np.empty(0, dtype=np.int64)
    if msg.num_symbols:
        table = FrequencyTable(msg.freqs, msg.precision)
        symbols = rans_decode(msg.payload, table, msg.num_symbols, msg.final_state)
    checks.require(
        np.array_equal(symbols, expected), f"{label}: decoded symbols != quantized kept cells"
    )


def check_recon(recon, mask, checks: Checks, label: str) -> None:
    values = recon.values
    checks.require(bool(np.isfinite(values).all()), f"{label}: non-finite reconstruction")
    checks.require(
        not values[:, ~mask.bits].any(), f"{label}: reconstruction non-zero on pruned cells"
    )


# --------------------------------------------------------------------------
# Set-up


def setup(seed: int, repeats: int, checks: Checks):
    """Fit the acceptance codec `repeats` times; returns (codec, seconds per fit)."""
    times, hashes, fitted = [], set(), None
    for _ in range(repeats):
        start = time.perf_counter()
        fitted = fit_acceptance_codec(seed)
        times.append(time.perf_counter() - start)
        hashes.add((fitted.codebook.version_hash, fitted.params.w_cond.tobytes()))
    checks.require(len(hashes) == 1, "repeated codec fits differ")
    return fitted, times


# --------------------------------------------------------------------------
# Link workloads


def team_frame(seed: int, index: int) -> list:
    """Every agent's view of eval scene `index` at t=0 on the 4-agent scenario."""
    cfg = simulate.scene_config(
        replace(acceptance_config(seed), num_agents=TEAM_AGENTS), index, stream="eval"
    )
    scene = simulate.generate_scene(cfg, 0)
    return [simulate.observe(scene, a, cfg) for a in range(TEAM_AGENTS)]


@dataclass
class LinkStats:
    encode_s: list[float] = field(default_factory=list)
    decode_s: list[float] = field(default_factory=list)
    frame_s: list[float] = field(default_factory=list)
    message_bytes: list[int] = field(default_factory=list)
    # Squared error and value count over the coded (kept) cells of every
    # measured decode; pruned cells are exact zeros on both sides.
    recon_sq_error: float = 0.0
    recon_values: int = 0
    fusion_mse: list[float] = field(default_factory=list)
    digest: str = ""
    failures: Counter = field(default_factory=Counter)
    failure_examples: dict[str, str] = field(default_factory=dict)


def run_links(fitted, seed, link: LinkSpec, seconds, min_encodes, tracer: Tracer, checks: Checks):
    """Closed loop over distinct team frames, each built just before its ops
    and outside every timer. The first `link.frames` frames are checked and
    give the byte and MSE means; the loop goes on with new frames until
    `seconds` of op time and `min_encodes` encodes are reached."""
    stats = LinkStats()
    params, cb = fitted.params, fitted.codebook
    sent_bytes = hashlib.blake2b(digest_size=16)
    index = 0
    while True:
        with tracer.paused():
            frame = team_frame(seed, index)
        measured = index < link.frames
        frame_s = 0.0

        sent, kept, masks = [], [], []
        for a, f in enumerate(frame):
            start = time.perf_counter()
            with tracer.span("bench.encode_op"):
                mask = pruning.mask_from_scores(pruning.score_map(f), link.tau)
                pruned = features.apply_mask(f, mask)
                msg = codec_mod.encode_message(f_pruned=pruned, mask=mask, params=params, cb=cb)
                data = msg.to_bytes()
            elapsed = time.perf_counter() - start
            stats.encode_s.append(elapsed)
            frame_s += elapsed
            sent.append(data)
            kept.append(pruned)
            masks.append(mask)
            if measured:
                with tracer.paused():
                    check_message(data, pruned, mask, fitted, checks, f"frame {index} agent {a}")
                stats.message_bytes.append(len(data))
                sent_bytes.update(data)

        for r, f_local in enumerate(frame):
            recons = []
            for a in range(len(frame)):
                if a == r:
                    continue
                start = time.perf_counter()
                with tracer.span("bench.decode_op"):
                    try:
                        recon = codec_mod.decode_message(
                            msg=wire.Message.from_bytes(sent[a]),
                            f_local=f_local,
                            params=params,
                            cb=cb,
                        )
                    except Exception as exc:  # every receiver failure is a failed op
                        name = type(exc).__name__
                        stats.failures[name] += 1
                        stats.failure_examples.setdefault(name, repr(exc))
                        recon = None
                elapsed = time.perf_counter() - start
                stats.decode_s.append(elapsed)
                frame_s += elapsed
                if recon is not None:
                    recons.append(recon)
                if measured:
                    with tracer.paused():
                        if recon is not None:
                            check_recon(recon, masks[a], checks, f"frame {index} {a}->{r}")
                        else:
                            recon = features.FeatureMap.zeros(*f_local.shape)
                        sq_error = features.mse(recon, kept[a]) * recon.values.size
                        stats.recon_sq_error += sq_error
                        stats.recon_values += masks[a].count() * f_local.channels
            start = time.perf_counter()
            fused = pipeline.fuse_all(f_local=f_local, reconstructions=recons)
            frame_s += time.perf_counter() - start
            if measured:
                with tracer.paused():
                    oracle = pipeline.fuse_all(
                        f_local=f_local, reconstructions=[g for b, g in enumerate(frame) if b != r]
                    )
                    stats.fusion_mse.append(features.mse(fused, oracle))

        stats.frame_s.append(frame_s)
        index += 1
        if (
            index >= link.frames
            and sum(stats.frame_s) >= seconds
            and len(stats.encode_s) >= min_encodes
        ):
            break
    stats.digest = sent_bytes.hexdigest()
    return stats


def measure_links(workload: str, seed: int, seconds: float, checks: Checks) -> Outcome:
    fitted, setup_times = setup(seed, SETUP_REPEATS, checks)
    stats = run_links(fitted, seed, LINKS[workload], seconds, MIN_ENCODES, Tracer(), checks)
    out = Outcome(digests={"messages": stats.digest})
    links_per_frame = TEAM_AGENTS * (TEAM_AGENTS - 1)
    busy = sum(stats.frame_s)
    # A median frame, not the mean, so a burst of contention on a shared
    # host moves the throughput less.
    frame_p50 = statistics.median(stats.frame_s)
    out.attempted = len(stats.decode_s)
    out.failures = stats.failures
    out.failure_examples = stats.failure_examples
    n_enc, n_dec, n_frames = len(stats.encode_s), len(stats.decode_s), len(stats.frame_s)
    rows = [
        ("setup_s", statistics.median(setup_times), "s", "lower", f"median of {SETUP_REPEATS} fits"),
        ("links_per_s", links_per_frame / frame_p50, "1/s", "higher", f"at the median of {n_frames} frame times"),
        ("frames_per_s", n_frames / busy, "1/s", "higher", f"{n_frames} frames"),
        ("encode_ms_p50", _ms(stats.encode_s, 50), "ms", "lower", f"n={n_enc}"),
        ("encode_ms_p90", _ms(stats.encode_s, 90), "ms", "lower", f"n={n_enc}"),
        ("decode_ms_p50", _ms(stats.decode_s, 50), "ms", "lower", f"n={n_dec}"),
        ("decode_ms_p90", _ms(stats.decode_s, 90), "ms", "lower", f"n={n_dec}"),
        ("message_bytes", float(np.mean(stats.message_bytes)), "B", "lower", f"n={len(stats.message_bytes)} messages"),
        ("recon_mse", stats.recon_sq_error / stats.recon_values, "1", "lower", f"over {stats.recon_values} coded values"),
        ("fusion_mse", float(np.mean(stats.fusion_mse)), "1", "lower", f"n={len(stats.fusion_mse)} receivers"),
        ("failed_ratio", sum(stats.failures.values()) / max(1, out.attempted), "1", "lower", f"of {out.attempted} receiver ops"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "lower", "whole process"),
    ]
    _finish(out, rows)
    return out


# --------------------------------------------------------------------------
# Sweep workloads


def _as_rows(points, cfg) -> list:
    """Sweep rows for write_csv; rd_sweep returns RDPoint until it is folded into SweepRow."""
    if all(hasattr(p, "as_csv") for p in points):
        return list(points)
    return pipeline.rd_points_to_rows(points, cfg)


def _csv_text(rows) -> str:
    handle = io.StringIO()
    pipeline.write_csv(rows, handle)
    return handle.getvalue()


def _call_sweep(workload: str, fitted, seed: int):
    cfg = acceptance_config(seed)
    if workload == "sweep-robust":
        rows = pipeline.robustness_sweep(
            cfg=cfg,
            sigmas=SWEEP_SIGMAS,
            delays=SWEEP_DELAYS,
            params=fitted.params,
            cb=fitted.codebook,
            tau=0.0,
            scenes=SWEEP_SCENES,
        )
        return list(rows)
    return list(
        pipeline.rd_sweep(
            cfg=cfg,
            taus=(0.0,),
            codebook_sizes=K_GRID,
            embed_dim=16,
            scenes_per_point=SWEEP_SCENES,
            train_scenes=6,
        )
    )


def check_sweep(workload: str, rows, fitted, seed: int, checks: Checks) -> str:
    """Checks on the sweep's rows; returns the digest of its CSV output."""
    finite = all(
        math.isfinite(v) for r in rows for v in (r.payload_bytes, r.recon_mse, r.fusion_mse)
    )
    checks.require(finite, f"{workload}: non-finite sweep values")
    if workload == "sweep-robust":
        checks.require(len(rows) == 2 * len(SWEEP_SIGMAS) * len(SWEEP_DELAYS), "row count")
        base = {
            r.conditional: r.recon_mse for r in rows if r.sigma_pose == 0.0 and r.delay == 0
        }
        checks.require(
            base.get(1, math.inf) < base.get(0, -math.inf),
            "conditional recon_mse not below unconditional at sigma=0, delay=0",
        )
    else:
        checks.require(len(rows) == len(K_GRID), "row count")
        at64 = next((r for r in rows if r.codebook_size == 64), None)
        ref = pipeline.evaluate_point(
            cfg=acceptance_config(seed),
            params=fitted.params,
            cb=fitted.codebook,
            tau=0.0,
            scenes=SWEEP_SCENES,
        )
        same = at64 is not None and (at64.payload_bytes, at64.recon_mse, at64.fusion_mse) == (
            ref.payload_bytes,
            ref.recon_mse,
            ref.fusion_mse,
        )
        checks.require(same, "rd_sweep K=64 point differs from evaluate_point on the set-up codec")
    return _hexdigest([_csv_text(_as_rows(rows, acceptance_config(seed))).encode("ascii")])


def probe_message(fitted, seed: int, checks: Checks) -> str:
    """Encode/decode one acceptance link outside the sweep and check it."""
    cfg = simulate.scene_config(acceptance_config(seed), 0, stream="eval")
    scene = simulate.generate_scene(cfg, pipeline.DEFAULT_EVAL_T)
    sender, receiver = simulate.observe(scene, 1, cfg), simulate.observe(scene, 0, cfg)
    mask = pruning.mask_from_scores(pruning.score_map(sender), 0.0)
    pruned = features.apply_mask(sender, mask)
    data = codec_mod.encode_message(
        f_pruned=pruned, mask=mask, params=fitted.params, cb=fitted.codebook
    ).to_bytes()
    check_message(data, pruned, mask, fitted, checks, "probe")
    recon = codec_mod.decode_message(
        msg=wire.Message.from_bytes(data), f_local=receiver, params=fitted.params, cb=fitted.codebook
    )
    check_recon(recon, mask, checks, "probe")
    return _hexdigest([data])


def measure_sweep(workload: str, seed: int, seconds: float, checks: Checks) -> Outcome:
    fitted, setup_times = setup(seed, SETUP_REPEATS, checks)
    durations, csv_digests, rows = [], set(), []
    while not durations or sum(durations) < seconds:
        start = time.perf_counter()
        rows = _call_sweep(workload, fitted, seed)
        durations.append(time.perf_counter() - start)
        csv_digests.add(check_sweep(workload, rows, fitted, seed, checks))
    checks.require(len(csv_digests) == 1, "repeated sweeps gave different CSV output")
    out = Outcome(digests={"messages": probe_message(fitted, seed, checks), "csv": csv_digests.pop()})
    links = sum(r.scenes for r in rows)
    sweep_s = statistics.median(durations)
    out.attempted = links * len(durations)
    rows_report = [
        ("setup_s", statistics.median(setup_times), "s", "lower", f"median of {SETUP_REPEATS} fits"),
        ("links_per_s", links / sweep_s, "1/s", "higher", f"{links} links per sweep"),
        ("sweep_s", sweep_s, "s", "lower", f"median of {len(durations)} sweeps"),
        ("message_bytes", float(np.mean([r.payload_bytes for r in rows])), "B", "lower", f"n={len(rows)} rows"),
        ("recon_mse", float(np.mean([r.recon_mse for r in rows])), "1", "lower", f"n={len(rows)} rows"),
        ("fusion_mse", float(np.mean([r.fusion_mse for r in rows])), "1", "lower", f"n={len(rows)} rows"),
        ("failed_ratio", 0.0, "1", "lower", f"of {out.attempted} links (a raising sweep ends the run)"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "lower", "whole process"),
    ]
    _finish(out, rows_report)
    return out


def _finish(out: Outcome, rows) -> None:
    out.report = rows
    out.metrics = {name: value for name, value, *_ in rows}


def measure(workload: str, seed: int, seconds: float, checks: Checks) -> Outcome:
    if workload in LINKS:
        return measure_links(workload, seed, seconds, checks)
    return measure_sweep(workload, seed, seconds, checks)


# --------------------------------------------------------------------------
# Traced run


def tau_grid_bytes(fitted, seed: int) -> dict[str, float]:
    """Exact bytes per wire section at each tau, for eval scene 0 at t=0."""
    cfg = simulate.scene_config(acceptance_config(seed), 0, stream="eval")
    sender = simulate.observe(simulate.generate_scene(cfg, 0), 1, cfg)
    scores = pruning.score_map(sender)
    table = {}
    for tau in TAU_GRID:
        mask = pruning.mask_from_scores(scores, tau)
        data = codec_mod.encode_message(
            f_pruned=features.apply_mask(sender, mask),
            mask=mask,
            params=fitted.params,
            cb=fitted.codebook,
        ).to_bytes()
        for section, size in message_sections(data).items():
            table[f"wire.tau{tau:g}.{section}_bytes"] = float(size)
    return table


def _timed_work(workload: str, fitted, seed: int, tracer: Tracer, checks: Checks):
    """The workload's timed work at a fixed size. Returns (busy seconds,
    output digests, link stats or None)."""
    if workload in LINKS:
        stats = run_links(fitted, seed, LINKS[workload], 0.0, 0, tracer, checks)
        return sum(stats.frame_s), {"messages": stats.digest}, stats
    start = time.perf_counter()
    rows = _call_sweep(workload, fitted, seed)
    busy = time.perf_counter() - start
    with tracer.paused():
        digest = check_sweep(workload, rows, fitted, seed, checks)
    return busy, {"csv": digest}, None


def trace(workload: str, seed: int, checks: Checks) -> Outcome:
    """Set up once, then run the timed work untraced and traced; the traced
    pass gives the per-layer metrics and must reproduce the untraced outputs."""
    fitted = fit_acceptance_codec(seed)
    plain_s, plain_digests, plain_stats = _timed_work(workload, fitted, seed, Tracer(), checks)
    tracer = Tracer()
    with installed(tracer):
        traced_s, digests, stats = _timed_work(workload, fitted, seed, tracer, checks)
    checks.require(digests == plain_digests, "traced run's output digests differ from untraced")

    out = Outcome(digests=digests)
    receiver_failures = 0
    if stats is not None:
        for s in (plain_stats, stats):
            out.failures.update(s.failures)
            out.failure_examples.update(s.failure_examples)
            out.attempted += len(s.decode_s)
        receiver_failures = sum(stats.failures.values())
    else:
        out.attempted = 2  # one sweep untraced, one traced
    out.metrics = per_layer(tracer, receiver_failures)
    out.metrics["bench.trace_overhead"] = traced_s / plain_s
    out.metrics.update(tau_grid_bytes(fitted, seed))
    return out


SELF_MS = (
    "simulate.generate_scene",
    "simulate.observe",
    "simulate.perturb_pose",
    "pruning.score_map",
    "pruning.mask_from_scores",
    "features.apply_mask",
    "features.elementwise_max",
    "features.mse",
    "quantizer.quantize_map",
    "quantizer.kmeans_fit",
    "rans.build_freq_table",
    "rans.rans_encode",
    "rans.rans_decode",
    "wire.to_bytes",
    "wire.from_bytes",
    "codec.project_cells",
    "codec.encode_message",
    "codec.si_context",
    "codec.decode_message",
    "codec.decode_unconditional",
    "codec.fit_encoder_projection",
    "codec.fit_conditional_decoder",
    "pipeline.fit_codec",
    "pipeline.run_link",
    "pipeline.fuse_all",
)
CALLS = (
    "simulate.generate_scene",
    "simulate.observe",
    "codec.si_context",
    "pipeline.fit_codec",
    "pipeline.run_link",
    "pipeline.evaluate_point",
)
DISTINCT = ("simulate.generate_scene", "simulate.observe", "codec.encode_message")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, receiver_failures: int) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in SELF_MS:
        m[f"{name}.self_ms"] = tr.self_ms(name)
    for name in CALLS:
        m[f"{name}.calls"] = float(tr.calls[name])
    for name in DISTINCT:
        m[f"{name}.distinct_ratio"] = tr.distinct_ratio(name)
    c = tr.counts
    m["pruning.kept_ratio"] = _ratio(c["pruning.kept_cells"], c["pruning.cells"])
    m["quantizer.quantize_map.vectors"] = float(c["quantizer.quantize_map.vectors"])
    m["quantizer.kmeans_fit.iterations"] = float(c["quantizer.kmeans_fit.iterations"])
    m["rans.symbols"] = float(c["rans.encoded_symbols"])
    m["rans.encode_ns_per_symbol"] = _ratio(tr.self_ns["rans.rans_encode"], c["rans.encoded_symbols"])
    m["rans.decode_ns_per_symbol"] = _ratio(tr.self_ns["rans.rans_decode"], c["rans.decoded_symbols"])
    for section in SECTIONS:
        m[f"wire.{section}_bytes"] = _ratio(c[f"wire.{section}_bytes"], c["wire.messages"])
    m["pipeline.link_failures"] = float(c["pipeline.link_failures"] + receiver_failures)
    for op in ("bench.encode_op", "bench.decode_op"):
        total, own, obs = tr.total_ns[op], tr.self_ns[op], tr.observer_ns[op]
        m[f"{op}.ms"] = total / 1e6
        # Share of the op's traced time (less counter-taking) spent inside layer spans.
        m[f"{op}.accounted_ratio"] = _ratio(total - own - obs, total - obs)
    m["bench.missing_spans"] = float(len(tr.missing))
    return m

