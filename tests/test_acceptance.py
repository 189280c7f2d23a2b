"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale scenario (2 agents, 32 channels, 128x128, rho = 0.9,
full overlap) is shared across criteria through module-scoped fixtures.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dsc_codec
from dsc_codec import (
    Codebook,
    CodecParams,
    FeatureMap,
    Mask,
    Message,
    ScenarioConfig,
    build_freq_table,
    conditional_entropy,
    decode_message,
    empirical_entropy,
    encode_message,
    finetune_step,
    fit_codec,
    fit_conditional_decoder,
    generate_scene,
    kmeans_fit,
    mse,
    mutual_information,
    observe,
    rans_decode,
    rans_encode,
    raw_payload_bytes,
    rd_sweep,
    robustness_sweep,
    write_csv,
)
from dsc_codec.codec import project_cells
from dsc_codec.pipeline import DEFAULT_EVAL_T, read_csv
from dsc_codec.pruning import mask_from_scores, score_map
from dsc_codec.quantizer import quantize_map
from dsc_codec.simulate import derive_seed, scene_config

CFG = ScenarioConfig(
    num_agents=2,
    channels=32,
    height=128,
    width=128,
    rho=0.9,
    sigma_obs=0.0,
    visibility_overlap=1.0,
    alpha=0.8,
    seed=2024,
)
TRAIN_SCENES = 6
SWEEP_SCENES = 2


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:>2} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_codec():
    return fit_codec(CFG, codebook_size=64, embed_dim=16, train_scenes=TRAIN_SCENES)


def eval_scene_features(index: int, t: int = DEFAULT_EVAL_T):
    cfg_s = scene_config(CFG, index, stream="eval")
    scene = generate_scene(cfg_s, t)
    return observe(scene, 1, cfg_s), observe(scene, 0, cfg_s)


def test_criterion_01_rans_losslessness():
    rng = np.random.default_rng(0xDC5)
    start = time.monotonic()
    failures = 0
    cases = 0
    k_choices = (2, 4, 16, 64)
    k_draw = rng.integers(0, len(k_choices), size=100_000)
    p_draw = rng.integers(8, 15, size=100_000)
    n_draw = rng.integers(1, 33, size=100_000)
    for i in range(100_000 - 4):
        k = k_choices[k_draw[i]]
        n = int(n_draw[i])
        idx = rng.integers(0, k, size=n)
        if i % 2 == 0:
            table = build_freq_table(idx, k, precision=int(p_draw[i]))
        else:
            # Table from an unrelated sequence; symbols drawn from its support.
            table = build_freq_table(rng.integers(0, k, size=24), k, precision=int(p_draw[i]))
            support = np.flatnonzero(table.freqs > 0)
            idx = support[rng.integers(0, len(support), size=n)]
        payload, state = rans_encode(idx, table)
        failures += not np.array_equal(rans_decode(payload, table, n, state), idx)
        cases += 1
    for n in (1, 2, 64, 100_000):  # boundary lengths {1, 2, K, 1e5}
        idx = rng.integers(0, 64, size=n)
        table = build_freq_table(idx, 64, precision=12)
        payload, state = rans_encode(idx, table)
        failures += not np.array_equal(rans_decode(payload, table, n, state), idx)
        cases += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "rANS losslessness",
        cases == 100_000 and failures == 0 and elapsed < 60.0,
        f"{cases} cases, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_02_rans_near_optimality():
    rng = np.random.default_rng(0xA2)
    n = 100_000
    ranks = np.arange(1, 65, dtype=np.float64)
    zipf = (1.0 / ranks**1.1) / np.sum(1.0 / ranks**1.1)
    sources = {
        "uniform64": np.full(64, 1.0 / 64),
        "zipf1.1": zipf,
        "two-point": np.array([0.75, 0.25]),
    }
    details = []
    ok = True
    for name, probs in sources.items():
        idx = rng.choice(len(probs), size=n, p=probs)
        table = build_freq_table(idx, len(probs), precision=12)
        payload, state = rans_encode(idx, table)
        assert np.array_equal(rans_decode(payload, table, n, state), idx)
        counts = np.bincount(idx, minlength=len(probs))
        p_hat = counts[counts > 0] / n
        entropy = float(-np.sum(p_hat * np.log2(p_hat)))
        coded_bits = 8 * len(payload) + 32
        bound = 1.02 * n * entropy + 512
        ok &= coded_bits <= bound
        if name == "two-point":
            ok &= abs(entropy - 0.8113) < 0.01
        details.append(f"{name}: {coded_bits} <= {bound:.0f} bits")
    report(2, "rANS near-optimality", ok, "; ".join(details))


def test_criterion_03_slepian_wolf_saving(desk_codec):
    f_x, f_y = eval_scene_features(0, t=0)
    z_x = project_cells(f_x.cell_vectors(), desk_codec.params)
    z_y = project_cells(f_y.cell_vectors(), desk_codec.params)
    x = quantize_map(z_x, desk_codec.codebook)
    y = quantize_map(z_y, desk_codec.codebook)
    assert len(x) >= 10_000
    h_x = empirical_entropy(x)
    h_x_given_y = conditional_entropy(x, y)
    info = mutual_information(x, y)
    identity_ok = h_x_given_y <= h_x - 0.9 * info + 0.02
    saving_ok = info > 0.5  # the correlated source must yield a real saving

    # Exact 2x2 table {0.4, 0.1, 0.1, 0.4}: plug-in estimate vs direct oracle.
    pairs = [(0, 0)] * 4 + [(1, 1)] * 4 + [(0, 1), (1, 0)]
    xs = np.array([a for a, _ in pairs])
    ys = np.array([b for _, b in pairs])
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    p_y = joint.sum(axis=0)
    oracle = -sum(joint[i, j] * np.log2(joint[i, j] / p_y[j]) for i in (0, 1) for j in (0, 1))
    table_ok = abs(conditional_entropy(xs, ys) - oracle) < 1e-6 and round(oracle, 4) == 0.7219
    report(
        3,
        "Slepian-Wolf saving realized",
        identity_ok and saving_ok and table_ok,
        f"H(X)={h_x:.3f}, H(X|Y)={h_x_given_y:.3f}, I={info:.3f}, table={oracle:.6f}",
    )


def test_criterion_04_payload_arithmetic():
    value = raw_payload_bytes(64, 256, 256, 32)
    report(4, "raw payload arithmetic", value == 16_777_216, f"{value} bytes = 16 MiB")


def test_criterion_05_conditional_beats_unconditional(desk_codec):
    start = time.monotonic()
    wins = 0
    scenes = 50
    for s in range(scenes):
        f_sender, f_local = eval_scene_features(s, t=0)
        mask = mask_from_scores(score_map(f_sender), 0.0)
        pruned = FeatureMap(f_sender.values * mask.bits[np.newaxis])
        msg = encode_message(pruned, mask, desk_codec.params, desk_codec.codebook)
        cond = mse(
            decode_message(msg, desk_codec.params, desk_codec.codebook, f_local=f_local), pruned
        )
        uncond = mse(decode_message(msg, desk_codec.params, desk_codec.codebook), pruned)
        wins += cond < uncond

    # Nested-model training-objective inequality, exact, across repeated fits.
    fits = [desk_codec.decoder_fit]
    for trial in range(9):
        cfg = dataclasses.replace(
            CFG, height=64, width=64, seed=derive_seed(CFG.seed, 99, trial)
        )
        fits.append(fit_codec(cfg, codebook_size=32, embed_dim=16, train_scenes=2).decoder_fit)
    nested_ok = all(f.cond_objective <= f.uncond_objective for f in fits)
    elapsed = time.monotonic() - start
    report(
        5,
        "conditional beats unconditional",
        wins >= int(0.9 * scenes) and nested_ok and elapsed < 300.0,
        f"wins {wins}/{scenes}, nested {len(fits)}/{len(fits)}, {elapsed:.0f}s",
    )


def _aggregate_mask_bits(tau: float) -> int:
    total = 0
    for s in range(SWEEP_SCENES):
        cfg_s = scene_config(CFG, s, stream="eval")
        f = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 1, cfg_s)
        total += mask_from_scores(score_map(f), tau).count()
    return total


def test_criterion_06_rate_distortion_trends():
    taus = [v / 10 for v in range(10)]
    tau_points = rd_sweep(
        CFG,
        taus=taus,
        codebook_sizes=[64],
        embed_dim=16,
        scenes_per_point=SWEEP_SCENES,
        train_scenes=TRAIN_SCENES,
    )
    payload_ok = True
    fusion_ok = True
    bits = [_aggregate_mask_bits(t) for t in taus]
    for i in range(len(tau_points) - 1):
        lo, hi = tau_points[i], tau_points[i + 1]
        if bits[i] == bits[i + 1]:
            payload_ok &= hi.payload_bytes == lo.payload_bytes  # saturated masks tie
        else:
            payload_ok &= hi.payload_bytes < lo.payload_bytes
        fusion_ok &= hi.fusion_mse >= lo.fusion_mse

    k_points = rd_sweep(
        CFG,
        taus=[0.0],
        codebook_sizes=[4, 16, 64, 256],
        embed_dim=16,
        scenes_per_point=SWEEP_SCENES,
        train_scenes=TRAIN_SCENES,
    )
    recons = [p.recon_mse for p in k_points]
    recon_ok = all(a >= b for a, b in zip(recons, recons[1:]))
    report(
        6,
        "rate-distortion trends",
        payload_ok and fusion_ok and recon_ok,
        f"payload {tau_points[0].payload_bytes:.0f}->{tau_points[-1].payload_bytes:.0f} B, "
        f"recon vs K {recons[0]:.4f}->{recons[-1]:.4f}",
    )


SMALL_SCENARIO = """\
num_agents = 2
channels = 8
height = 32
width = 32
rho = 0.9
sigma_obs = 0.0
visibility_overlap = 1.0
alpha = 0.8
seed = 7
"""


# The package's own import root, absolute, so the CLI subprocess imports the
# code under test whatever its working directory.
_SRC = str(Path(dsc_codec.__file__).resolve().parent.parent)


def _run_cli(args, cwd) -> None:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": _SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "dsc_codec", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"cli {args} failed: {proc.stderr}"


def test_criterion_07_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SMALL_SCENARIO)
    outputs: dict[str, list[bytes]] = {}
    for run in ("run1", "run2"):
        base = tmp_path / run
        fixtures, codec = base / "fixtures", base / "codec"
        _run_cli(["gen", "--scenario", str(scenario), "--out", str(fixtures)], tmp_path)
        _run_cli(
            [
                "fit", "--scenario", str(scenario), "--codebook-size", "16",
                "--embed-dim", "8", "--train-scenes", "2", "--out", str(codec),
            ],
            tmp_path,
        )
        _run_cli(
            [
                "encode", "--params", str(codec / "codec.dccp"),
                "--codebook", str(codec / "codebook.cdbk"),
                "--input", str(fixtures / "agent1_t0.fmap"),
                "--tau", "0.1", "--out", str(base / "link.msg"),
            ],
            tmp_path,
        )
        _run_cli(
            [
                "decode", "--params", str(codec / "codec.dccp"),
                "--codebook", str(codec / "codebook.cdbk"),
                "--input", str(base / "link.msg"),
                "--side-info", str(fixtures / "agent0_t0.fmap"),
                "--out", str(base / "recon.fmap"),
            ],
            tmp_path,
        )
        _run_cli(
            [
                "sweep-rd", "--scenario", str(scenario), "--taus", "0,0.5",
                "--codebook-sizes", "8", "--embed-dim", "8", "--scenes", "1",
                "--train-scenes", "2", "--out", str(base / "rd.csv"),
            ],
            tmp_path,
        )
        _run_cli(
            [
                "sweep-robust", "--scenario", str(scenario), "--sigmas", "0,1",
                "--delays", "0,1", "--codebook-size", "8", "--embed-dim", "8",
                "--scenes", "1", "--train-scenes", "2", "--out", str(base / "robust.csv"),
            ],
            tmp_path,
        )
        for name in (
            "fixtures/agent0_t0.fmap",
            "fixtures/agent1_t0.fmap",
            "fixtures/scenario.cfg",
            "codec/codec.dccp",
            "codec/codebook.cdbk",
            "link.msg",
            "recon.fmap",
            "rd.csv",
            "robust.csv",
        ):
            outputs.setdefault(name, []).append((base / name).read_bytes())
    mismatches = [name for name, blobs in outputs.items() if blobs[0] != blobs[1]]
    report(
        7,
        "CLI determinism",
        not mismatches,
        f"{len(outputs)} artifacts byte-identical" if not mismatches else f"differ: {mismatches}",
    )


def test_criterion_08_encoder_independence_fuzz(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    shape = (small_cfg.channels, small_cfg.height, small_cfg.width)
    rng = np.random.default_rng(0xF0)
    f_sender = FeatureMap(rng.normal(size=shape))
    mask = mask_from_scores(score_map(f_sender), 0.1)
    pruned = FeatureMap(f_sender.values * mask.bits[np.newaxis])
    reference = encode_message(pruned, mask, params, cb).to_bytes()
    trials = 1000
    stable = 0
    for _ in range(trials):
        receiver = FeatureMap(rng.normal(size=shape))
        decode_message(Message.from_bytes(reference), params, cb, f_local=receiver)
        stable += encode_message(pruned, mask, params, cb).to_bytes() == reference
    report(
        8,
        "encoder independence (Markov constraint)",
        stable == trials,
        f"{stable}/{trials} byte-identical messages",
    )


def test_criterion_09_gradient_fidelity(rng):
    # Decoder-weight gradients vs central finite differences at 100 random
    # points in weight space (frozen quantizer assignments), then Lloyd
    # distortion monotonicity over 100 seeded k-means runs.
    c, d, k, h, w = 4, 3, 8, 10, 10
    cb = Codebook(rng.normal(size=(k, d)))
    proj = np.linalg.qr(rng.normal(size=(c, c)))[0][:d]
    base = CodecParams(
        projection=proj, mean=rng.normal(size=c) * 0.1, codebook_hash=cb.version_hash
    )
    batch = [
        (FeatureMap(rng.normal(size=(c, h, w))), FeatureMap(rng.normal(size=(c, h, w))))
        for _ in range(2)
    ]
    fit_pairs = [(s, Mask.ones(h, w), r) for s, r in batch]
    base = base.with_decoder_fit(fit_conditional_decoder(fit_pairs, [(base, cb)])[0])
    v = np.concatenate([s.cell_vectors() for s, _ in batch], axis=0)
    assignments = quantize_map(project_cells(v, base), cb)

    def loss_at(w_matrix):
        probe = dataclasses.replace(base, w_cond=w_matrix)
        _, _, value = finetune_step(
            probe, cb, batch, lr=0.0, assignments=assignments, update_codebook=False
        )
        return value

    eps = 1e-5
    lr = 1e-2
    grad_ok = 0
    for point in range(100):
        w_point = base.w_cond + rng.normal(size=base.w_cond.shape)
        probe = dataclasses.replace(base, w_cond=w_point)
        stepped, _, _ = finetune_step(
            probe, cb, batch, lr=lr, assignments=assignments, update_codebook=False
        )
        grad = (w_point - stepped.w_cond) / lr
        direction = rng.normal(size=w_point.shape)
        direction /= np.linalg.norm(direction)
        fd = (loss_at(w_point + eps * direction) - loss_at(w_point - eps * direction)) / (2 * eps)
        analytic = float(np.sum(grad * direction))
        grad_ok += abs(analytic - fd) / max(abs(fd), 1e-12) < 1e-4

    lloyd_ok = 0
    for seed in range(100):
        samples = np.random.default_rng(seed).normal(size=(256, 4))
        _, history = kmeans_fit(samples, 8, iters=12, seed=seed)
        lloyd_ok += all(a >= b for a, b in zip(history, history[1:]))
    report(
        9,
        "gradient fidelity + Lloyd monotonicity",
        grad_ok == 100 and lloyd_ok == 100,
        f"gradient {grad_ok}/100, k-means {lloyd_ok}/100",
    )


def test_criterion_10_robustness_harness(tmp_path, desk_codec):
    sigmas = [0.0, 1.0, 2.0, 4.0]
    delays = [0, 1, 2, 4]
    rows = robustness_sweep(
        CFG,
        sigmas,
        delays,
        desk_codec.params,
        desk_codec.codebook,
        tau=0.0,
        scenes=SWEEP_SCENES,
    )
    csv_path = tmp_path / "robust.csv"
    write_csv(rows, csv_path)
    loaded = read_csv(csv_path)
    combos = {(r.sigma_pose, r.delay, r.conditional) for r in loaded}
    grid_ok = len(loaded) == 2 * len(sigmas) * len(delays) and len(combos) == len(loaded)

    rd_point = rd_sweep(
        CFG,
        taus=[0.0],
        codebook_sizes=[64],
        embed_dim=16,
        scenes_per_point=SWEEP_SCENES,
        train_scenes=TRAIN_SCENES,
    )[0]
    base_row = next(
        r for r in loaded if r.sigma_pose == 0.0 and r.delay == 0 and r.conditional == 1
    )
    base_ok = (
        base_row.payload_bytes == rd_point.payload_bytes
        and base_row.recon_mse == rd_point.recon_mse
        and base_row.fusion_mse == rd_point.fusion_mse
    )
    report(
        10,
        "robustness harness",
        grid_ok and base_ok,
        f"{len(loaded)} rows over {len(sigmas)}x{len(delays)} grid; "
        f"(0,0) row == rd point: {base_ok}",
    )
