import dataclasses
import hashlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsc_codec import (
    ConfigError,
    FeatureMap,
    FormatError,
    InsufficientDataError,
    ScenarioConfig,
    SymbolOutOfRangeError,
    elementwise_max,
    evaluate_point,
    fit_codec,
    fuse_all,
    mse,
    run_link,
    rd_sweep,
    robustness_sweep,
    write_csv,
)
from dsc_codec import codec, pipeline, quantizer, simulate
from dsc_codec.pipeline import (
    CSV_HEADER,
    DEFAULT_EVAL_T,
    SweepRow,
    read_csv,
    summarize_rows,
)
from dsc_codec.pruning import mask_from_scores, score_map
from dsc_codec.simulate import generate_scene, observe, scene_config
from tests.test_codec import _traced_peak
from tests.test_simulate import mutated_text
from tests.test_wire import independent_parse


def test_fuse_all_identity_and_idempotence(rng):
    f = FeatureMap(rng.normal(size=(3, 6, 6)))
    assert np.array_equal(fuse_all(f, []).values, f.values)
    assert np.array_equal(fuse_all(f, [f, f]).values, f.values)


def test_fuse_all_order_invariance(rng):
    f = FeatureMap(rng.normal(size=(2, 5, 5)))
    rs = [FeatureMap(rng.normal(size=(2, 5, 5))) for _ in range(3)]
    a = fuse_all(f, rs)
    b = fuse_all(f, rs[::-1])
    assert np.array_equal(a.values, b.values)


def test_run_link_zero_tau_matches_manual_recomputation(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    cfg_s = scene_config(small_cfg, 0, stream="eval")
    res = run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, tau=0.0)

    # Reproduce the link deterministically and check each reported metric.
    f_local = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 0, cfg_s)
    f_sender = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 1, cfg_s)
    mask = mask_from_scores(score_map(f_sender), 0.0)
    pruned = FeatureMap(f_sender.values * mask.bits[np.newaxis])
    from dsc_codec import decode_message, encode_message

    msg = encode_message(pruned, mask, params, cb)
    recon = decode_message(msg, params, cb, f_local=f_local)
    assert res.payload_bytes == len(msg.to_bytes())
    assert res.recon_mse == pytest.approx(mse(recon, pruned), abs=0.0)
    oracle = elementwise_max(f_local, f_sender)
    fused = elementwise_max(f_local, recon)
    assert res.fusion_mse == pytest.approx(mse(fused, oracle), abs=0.0)
    assert res.within_budget and not res.failed


def test_run_link_payload_matches_independent_parser(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    cfg_s = scene_config(small_cfg, 1, stream="eval")
    f_sender = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 1, cfg_s)
    mask = mask_from_scores(score_map(f_sender), 0.2)
    pruned = FeatureMap(f_sender.values * mask.bits[np.newaxis])
    from dsc_codec import encode_message

    msg = encode_message(pruned, mask, params, cb)
    res = run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, tau=0.2)
    assert res.payload_bytes == independent_parse(msg.to_bytes())["total"]


def test_run_link_saturated_tau_sends_header_mask_table_only(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    res = run_link(small_cfg, 0, 1, 0, params, cb, tau=1.0)
    # An empty 32x32 mask is one 0-run of 1024 cells in the run form: its
    # 7-byte header, then 1023 = (1 << 9) + 511 at k0 = 9 in 2 + 9 bits.
    mask_bytes = 7 + 2
    expected = 25 + 4 + mask_bytes + 4 + 2 * cb.size + 4 + 0 + 4
    assert res.payload_bytes == expected


def test_run_link_budget_drop_falls_back_to_local(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    cfg_s = scene_config(small_cfg, 2, stream="eval")
    res = run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, tau=0.0, budget=10)
    assert not res.within_budget
    # The receiver keeps only its local feature: fused == local, so the
    # fusion gap equals the gap between local-only fusion and the oracle.
    f_local = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 0, cfg_s)
    f_sender = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 1, cfg_s)
    assert res.fusion_mse == pytest.approx(
        mse(f_local, elementwise_max(f_local, f_sender)), abs=0.0
    )


def test_identity_channel_has_zero_fusion_fidelity_gap(small_cfg):
    # Replace the whole communication path with an identity channel: the
    # receiver gets the sender feature verbatim, so fusing it reproduces the
    # uncompressed-fusion oracle exactly.
    cfg_s = scene_config(small_cfg, 4, stream="eval")
    f_local = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 0, cfg_s)
    f_sender = observe(generate_scene(cfg_s, DEFAULT_EVAL_T), 1, cfg_s)
    fused = fuse_all(f_local, [f_sender])
    oracle = elementwise_max(f_local, f_sender)
    assert mse(fused, oracle) == 0.0


def test_run_link_validation(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    with pytest.raises(ConfigError):
        run_link(small_cfg, 0, 1, 1, params, cb)
    with pytest.raises(ConfigError):
        run_link(small_cfg, 0, 1, 0, params, cb, delay=-1)


def test_whole_number_delays_of_any_type_give_int_rows(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    cfg_s = scene_config(small_cfg, 0, stream="eval")
    reference = run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, delay=2)
    for delay in (np.int64(2), 2.0):
        assert run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, delay=delay) == reference
    rows = robustness_sweep(small_cfg, [0.0], [2, np.int64(2), 2.0], params, cb, scenes=1)
    assert [type(r.delay) for r in rows] == [int] * 6
    assert len({(r.payload_bytes, r.recon_mse, r.fusion_mse) for r in rows[::2]}) == 1


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma_pose": -1.0},
        {"sigma_pose": float("nan")},
        {"delay": -1},
        {"delay": 1.5},
        {"delay": float("nan")},
        {"delay": float("inf")},
        {"sigma_pose": float("inf")},
    ],
)
def test_run_link_rejects_invalid_perturbation_before_simulating(
    monkeypatch, small_cfg, small_fitted, kwargs
):
    frames = _count_calls(monkeypatch, pipeline, "_walk_frames")
    with pytest.raises(ConfigError):
        run_link(small_cfg, 4, 1, 0, small_fitted.params, small_fitted.codebook, **kwargs)
    assert frames == []


@pytest.mark.parametrize(
    "sigmas, delays",
    [
        ([0.0, 1.0, -1.0], [0, 1]),
        ([0.0], [0, 2, -2]),
        ([float("nan")], [0]),
        ([0.0], [1.5]),
        ([0.0], [0, 2, 0.5]),
        ([0.0, float("inf")], [0]),
    ],
)
def test_robustness_sweep_rejects_invalid_grid_before_simulating(
    monkeypatch, small_cfg, small_fitted, sigmas, delays
):
    frames = _count_calls(monkeypatch, pipeline, "_walk_frames")
    with pytest.raises(ConfigError):
        robustness_sweep(
            small_cfg, sigmas, delays, small_fitted.params, small_fitted.codebook, scenes=2
        )
    assert frames == []


def test_run_link_rejects_a_budget_string_before_simulating(
    monkeypatch, small_cfg, small_fitted
):
    frames = _count_calls(monkeypatch, pipeline, "_walk_frames")
    with pytest.raises(ConfigError, match="^budget must be an integer, got '100'"):
        run_link(small_cfg, 4, 1, 0, small_fitted.params, small_fitted.codebook, budget="100")
    assert frames == []


def test_run_link_accepts_a_delay_past_float_range(small_cfg, small_fitted):
    # Any delay >= t sends frame 0; 10**400 has no float.
    params, cb = small_fitted.params, small_fitted.codebook
    cfg_s = scene_config(small_cfg, 0, stream="eval")
    huge = run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, delay=10**400)
    assert huge == run_link(cfg_s, DEFAULT_EVAL_T, 1, 0, params, cb, delay=DEFAULT_EVAL_T)


def test_run_link_delay_uses_stale_sender_frame(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    cfg_s = scene_config(small_cfg, 3, stream="eval")
    fresh = run_link(cfg_s, 4, 1, 0, params, cb, tau=0.0, delay=0)
    stale = run_link(cfg_s, 4, 1, 0, params, cb, tau=0.0, delay=4)
    assert stale.fusion_mse != fresh.fusion_mse


def test_evaluate_point_deterministic(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    a = evaluate_point(small_cfg, params, cb, tau=0.1, scenes=2)
    b = evaluate_point(small_cfg, params, cb, tau=0.1, scenes=2)
    assert a == b


def test_rd_sweep_single_point(small_cfg):
    points = rd_sweep(
        small_cfg, taus=[0.5], codebook_sizes=[8], embed_dim=8, scenes_per_point=1, train_scenes=2
    )
    assert len(points) == 1
    assert points[0].tau == 0.5 and points[0].codebook_size == 8
    assert points[0].scenes == 1


def test_rd_sweep_payload_monotone_in_tau(small_cfg):
    points = rd_sweep(
        small_cfg,
        taus=[0.0, 0.5, 0.7, 0.9],
        codebook_sizes=[16],
        embed_dim=8,
        scenes_per_point=2,
        train_scenes=2,
    )
    payloads = [p.payload_bytes for p in points]
    assert all(a >= b for a, b in zip(payloads, payloads[1:]))
    assert payloads[0] > payloads[-1]


def test_rd_sweep_recon_mse_non_increasing_in_codebook_size(small_cfg):
    points = rd_sweep(
        small_cfg,
        taus=[0.0],
        codebook_sizes=[4, 16, 64],
        embed_dim=8,
        scenes_per_point=2,
        train_scenes=2,
    )
    recons = [p.recon_mse for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(recons, recons[1:]))


def test_rd_sweep_rows_equal_fit_codec_then_evaluate_point(small_cfg):
    # A repeated K and a repeated tau must give repeated rows in grid order.
    taus, sizes, scenes, train = [0.0, 0.6, 0.0], [8, 4, 8], 2, 2
    points = rd_sweep(
        small_cfg, taus=taus, codebook_sizes=sizes, embed_dim=8,
        scenes_per_point=scenes, train_scenes=train,
    )
    assert [(p.codebook_size, p.tau) for p in points] == [(k, t) for k in sizes for t in taus]
    for k in sizes:
        fitted = fit_codec(small_cfg, codebook_size=k, embed_dim=8, train_scenes=train)
        for tau in taus:
            row = evaluate_point(small_cfg, fitted.params, fitted.codebook, tau=tau, scenes=scenes)
            assert points.pop(0) == row
            assert (row.embed_dim, row.scenes) == (8, scenes)


@pytest.mark.parametrize("taus, sizes", [([0.0, 0.5], [4, 16]), ([0.3], [8, 8, 4])])
def test_rd_sweep_shares_fit_and_scene_work(monkeypatch, small_cfg, taus, sizes):
    # small_cfg has sigma_obs = 0, so observe draws exactly one unit field.
    fields = _count_calls(monkeypatch, simulate, "_unit_field")
    projections = _count_calls(monkeypatch, pipeline, "fit_encoder_projection")
    kmeans = _count_calls(monkeypatch, quantizer, "kmeans_fit")
    training_contexts = _count_calls(monkeypatch, codec, "si_context")
    train, scenes = 2, 2
    points = rd_sweep(
        small_cfg, taus=taus, codebook_sizes=sizes, embed_dim=8,
        scenes_per_point=scenes, train_scenes=train,
    )
    assert len(points) == len(taus) * len(sizes)
    # Each training scene is frame 0 plus one observation per agent; each
    # eval scene is frames 0..t plus one receiver and one sender observation.
    expected = train * (1 + small_cfg.num_agents) + scenes * (DEFAULT_EVAL_T + 1 + 2)
    assert len(fields) == expected
    assert len(projections) == 1
    assert [args[1] for args in kmeans] == sizes
    # One decoder pass: each ordered training pair's context is built once,
    # whatever the number of sizes.
    pairs = small_cfg.num_agents * (small_cfg.num_agents - 1)
    assert len(training_contexts) == train * pairs


@pytest.mark.parametrize(
    "kwargs",
    [
        {"taus": [0.0, 1.5]},
        {"taus": [float("nan")]},
        {"taus": [-0.1]},
        {"codebook_sizes": [8, 0]},
        {"scenes_per_point": 0},
        {"train_scenes": 0},
        {"embed_dim": 0},
    ],
)
def test_rd_sweep_rejects_invalid_grid_before_simulating(monkeypatch, small_cfg, kwargs):
    scenes = _count_calls(monkeypatch, pipeline, "generate_scene")
    frames = _count_calls(monkeypatch, pipeline, "_walk_frames")
    args = dict(taus=[0.0], codebook_sizes=[8], embed_dim=8, scenes_per_point=1, train_scenes=2)
    args.update(kwargs)
    with pytest.raises(ConfigError):
        rd_sweep(small_cfg, **args)
    assert scenes == [] and frames == []


@pytest.mark.parametrize(
    "entry",
    [
        lambda cfg, fitted: run_link(cfg, 4, 1, 0, fitted.params, fitted.codebook),
        lambda cfg, fitted: robustness_sweep(cfg, [0.0], [0], fitted.params, fitted.codebook),
        lambda cfg, fitted: rd_sweep(
            cfg, taus=[0.0], codebook_sizes=[8], embed_dim=8, scenes_per_point=1, train_scenes=2
        ),
    ],
    ids=["run_link", "robustness_sweep", "rd_sweep"],
)
def test_links_and_sweeps_reject_a_grid_over_the_wire_cap_before_simulating(
    monkeypatch, small_cfg, small_fitted, entry
):
    # No message may state more than MAX_CELLS cells, so no link can run on
    # a larger grid; the check comes before the fit, the walk or a message.
    scenes = _count_calls(monkeypatch, pipeline, "generate_scene")
    frames = _count_calls(monkeypatch, pipeline, "_walk_frames")
    over = dataclasses.replace(small_cfg, height=1025, width=1024)
    with pytest.raises(ConfigError, match="^a 1025x1024 grid exceeds the wire's 1048576 cells"):
        entry(over, small_fitted)
    assert scenes == [] and frames == []
    at_cap = dataclasses.replace(small_cfg, height=1024, width=1024)
    pipeline._check_grid(at_cap, [0.0], [0.0], [0], None)


@pytest.mark.parametrize(
    "kwargs",
    [{"codebook_size": 0}, {"embed_dim": 0}, {"train_scenes": 0}],
)
def test_fit_codec_rejects_invalid_arguments_before_simulating(monkeypatch, small_cfg, kwargs):
    scenes = _count_calls(monkeypatch, pipeline, "generate_scene")
    with pytest.raises(ConfigError):
        fit_codec(small_cfg, **{"codebook_size": 4, "embed_dim": 4, "train_scenes": 2, **kwargs})
    assert scenes == []


def test_kmeans_sample_is_one_d_by_s_block_of_its_own(monkeypatch, small_cfg):
    # A limit below the 2048 training cells makes the sample every 5th row;
    # Lloyd's passes read it column by column, so it is the .T view of one
    # C-order (D, S) block, and it must not keep the pooled latents alive.
    monkeypatch.setattr(pipeline, "_KMEANS_SAMPLE_LIMIT", 500)
    samples = _count_calls(monkeypatch, pipeline, "train_codebook")
    fit_codec(small_cfg, codebook_size=4, embed_dim=4, train_scenes=1)
    [(sample, *_)] = samples
    assert sample.shape[0] <= 500
    block = sample.base
    assert block is not None and block.shape == (4, sample.shape[0])
    assert block.flags.c_contiguous and block.flags.owndata
    assert np.shares_memory(sample.T, block) and sample.T.flags.c_contiguous


def test_kmeans_copies_no_sample_during_fit_codec(monkeypatch):
    # 2 scenes x 2 agents x 128 x 128 cells give a 65536 x 16 sample (8 MiB).
    # k-means reads the fit's (D, S) block through its .T view, so its peak
    # above what the fit holds stays below one sample: the float32 screen's
    # lift (half a sample) and N-sized vectors, but no copy of the sample.
    cfg = ScenarioConfig(num_agents=2, channels=16, height=128, width=128, seed=3)
    peaks = []
    train = pipeline.train_codebook

    def tracing(samples, k, iters, seed):
        out = []
        peak = _traced_peak(lambda: out.append(train(samples, k, iters, seed)))
        peaks.append((samples.nbytes, peak))
        return out[0]

    monkeypatch.setattr(pipeline, "train_codebook", tracing)
    fit_codec(cfg, codebook_size=64, embed_dim=16, train_scenes=2)
    [(sample_bytes, peak)] = peaks
    assert sample_bytes == 65536 * 16 * 8
    assert peak < sample_bytes


def test_scene_links_hold_one_latent_frame_of_the_walk():
    # The walk holds one latent frame and each sender view's maps are freed
    # before the next view: a delay-4 sender costs at most one latent frame
    # more than none, and walking to frame 4 at most one more than frame 0.
    cfg = ScenarioConfig(num_agents=2, channels=32, height=64, width=64, seed=3)
    fitted = fit_codec(cfg, codebook_size=4, embed_dim=4, train_scenes=1)
    frame = cfg.channels * cfg.height * cfg.width * 8

    def peak(t, delays):
        grid = ([(fitted.params, fitted.codebook)], (0.0,), (0.0,), delays, None, (True,))
        return _traced_peak(lambda: pipeline._scene_links(cfg, t, 1, 0, *grid))

    at_4 = peak(4, (0,))
    assert peak(4, (0, 4)) <= at_4 + frame
    assert at_4 <= peak(0, (0,)) + frame


def test_kmeans_sample_is_every_step_th_pooled_latent(monkeypatch):
    # At half overlap three agents keep 170, 171 and 171 of 256 cells, so
    # with step 4 the maps' first sampled rows sit at offsets 0, 2, 3, 0,
    # 2, 3: the map-by-map draw must equal striding the pooled latents.
    cfg = ScenarioConfig(
        num_agents=3, channels=4, height=16, width=16, visibility_overlap=0.5, seed=5
    )
    monkeypatch.setattr(pipeline, "_KMEANS_SAMPLE_LIMIT", 300)
    samples = _count_calls(monkeypatch, pipeline, "train_codebook")
    fitted = fit_codec(cfg, codebook_size=4, embed_dim=3, train_scenes=2)
    [(sample, *_)] = samples
    blocks = []
    for s in range(2):
        cfg_s = scene_config(cfg, s, stream="train")
        scene = generate_scene(cfg_s, 0)
        for a in range(cfg.num_agents):
            f = observe(scene, a, cfg_s)
            kept = mask_from_scores(score_map(f), 0.0).bits.ravel()
            blocks.append(codec.project_cells(f.cell_vectors()[kept], fitted.params))
    assert [len(b) for b in blocks] == [170, 171, 171] * 2
    pooled = np.concatenate(blocks)
    step = -(-len(pooled) // 300)
    assert step == 4
    assert np.array_equal(sample, pooled[::step])


def test_fit_codec_rejects_training_scenes_with_no_kept_cell(monkeypatch):
    # All-zero observations score 0 everywhere, so pruning keeps no cell.
    cfg = ScenarioConfig(channels=8, height=16, width=16, seed=3)
    zeros = FeatureMap.zeros(cfg.channels, cfg.height, cfg.width)
    monkeypatch.setattr(pipeline, "observe", lambda scene, agent, cfg_s: zeros)
    with pytest.raises(InsufficientDataError, match="no training cell survives pruning"):
        fit_codec(cfg, codebook_size=4, embed_dim=4, train_scenes=2)


def test_robustness_sweep_grid_and_unperturbed_row(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    sigmas, delays = [0.0, 2.0], [0, 2]
    rows = robustness_sweep(
        small_cfg, sigmas, delays, params, cb, tau=0.0, scenes=2
    )
    assert len(rows) == 2 * len(sigmas) * len(delays)
    combos = {(r.sigma_pose, r.delay, r.conditional) for r in rows}
    assert len(combos) == len(rows)

    base = next(r for r in rows if r.sigma_pose == 0 and r.delay == 0 and r.conditional == 1)
    assert base == evaluate_point(small_cfg, params, cb, tau=0.0, scenes=2)


def test_robustness_rows_equal_scene_mean_of_run_link(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    sigmas, delays, scenes = [0.0, 1.5], [0, 2, 5], 2
    rows = robustness_sweep(small_cfg, sigmas, delays, params, cb, tau=0.3, scenes=scenes)
    assert len(rows) == 2 * len(sigmas) * len(delays)
    for row in rows:
        links = [
            run_link(
                scene_config(small_cfg, s, stream="eval"),
                DEFAULT_EVAL_T,
                1,
                0,
                params,
                cb,
                tau=0.3,
                sigma_pose=row.sigma_pose,
                delay=row.delay,
                conditional=bool(row.conditional),
            )
            for s in range(scenes)
        ]
        assert row.payload_bytes == float(np.mean([r.payload_bytes for r in links]))
        assert row.recon_mse == float(np.mean([r.recon_mse for r in links]))
        assert row.fusion_mse == float(np.mean([r.fusion_mse for r in links]))
        assert row == evaluate_point(
            small_cfg,
            params,
            cb,
            tau=0.3,
            sigma_pose=row.sigma_pose,
            delay=row.delay,
            scenes=scenes,
            conditional=bool(row.conditional),
        )


def test_sweeps_take_numpy_grids(small_cfg, small_fitted):
    # A numpy grid has no truth value; the sweeps used to raise a bare
    # ValueError from their non-empty check.
    params, cb = small_fitted.params, small_fitted.codebook
    rows = robustness_sweep(small_cfg, [0.0, 1.0], [0, 2], params, cb, scenes=1)
    sigmas, delays = np.array([0.0, 1.0]), np.array([0, 2])
    assert robustness_sweep(small_cfg, sigmas, delays, params, cb, scenes=1) == rows
    args = dict(embed_dim=4, scenes_per_point=1, train_scenes=1)
    assert rd_sweep(small_cfg, np.array([0.0, 0.5]), np.array([4]), **args) == rd_sweep(
        small_cfg, [0.0, 0.5], [4], **args
    )


def test_robustness_sweep_simulates_each_scene_once(monkeypatch, small_cfg, small_fitted):
    # small_cfg has sigma_obs = 0, so observe draws exactly one unit field.
    fields = _count_calls(monkeypatch, simulate, "_unit_field")
    observes = _count_calls(monkeypatch, pipeline, "observe")
    encodes = _count_calls(monkeypatch, pipeline, "encode_message")
    sigmas, delays, scenes = [0.0, 1.0, 2.0], [0, 1, 4, 6], 2
    rows = robustness_sweep(
        small_cfg, sigmas, delays, small_fitted.params, small_fitted.codebook, scenes=scenes
    )
    assert len(rows) == 2 * len(sigmas) * len(delays)
    sender_frames = len({max(0, DEFAULT_EVAL_T - d) for d in delays})
    assert len(observes) == scenes * (1 + sender_frames)
    assert len(fields) == scenes * (DEFAULT_EVAL_T + 1 + 1 + sender_frames)
    assert len(encodes) == scenes * len(sigmas) * len(delays)


def test_run_link_simulates_its_scene_once(monkeypatch, small_cfg, small_fitted):
    fields = _count_calls(monkeypatch, simulate, "_unit_field")
    encodes = _count_calls(monkeypatch, pipeline, "encode_message")
    run_link(small_cfg, 3, 1, 0, small_fitted.params, small_fitted.codebook, delay=2)
    # Chain frames 0..3, then one field each for the receiver and sender.
    assert len(fields) == 3 + 1 + 2
    assert len(encodes) == 1


def test_robustness_sweep_decodes_each_message_once_and_builds_one_context(
    monkeypatch, small_cfg, small_fitted
):
    decodes = _count_calls(monkeypatch, codec, "rans_decode")
    contexts = _count_calls(monkeypatch, pipeline, "si_context")
    decoder_contexts = _count_calls(monkeypatch, codec, "si_context")
    rows = robustness_sweep(
        small_cfg, [0.0, 1.0], [0, 2], small_fitted.params, small_fitted.codebook, scenes=1
    )
    assert len(rows) == 8
    # One symbol decode per message for both decoders, one context per scene.
    assert len(decodes) == 4
    assert len(contexts) == 1
    assert decoder_contexts == []


def test_scene_builds_one_context_for_every_codec(monkeypatch, small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    halved = dataclasses.replace(params, w_cond=params.w_cond / 2)
    codecs = [(params, cb), (halved, cb), (params, cb)]
    contexts = _count_calls(monkeypatch, pipeline, "si_context")
    links = pipeline._scene_links(
        small_cfg, DEFAULT_EVAL_T, 1, 0, codecs, (0.0, 0.8), (0.0,), (0,), None, (True,)
    )
    assert len(contexts) == 1 and contexts[0][1].bits.all()
    # Walk order (tau, codec) with one view and one decoder: tau 0.8 is 3..5.
    assert links[3] == links[5]
    assert links[3] != links[4]
    # No conditional decoder, no context.
    pipeline._scene_links(
        small_cfg, DEFAULT_EVAL_T, 1, 0, codecs, (0.0,), (0.0,), (0,), None, (False,)
    )
    assert len(contexts) == 1


def test_failed_symbol_decode_fails_every_decoder_and_falls_back_to_local(
    monkeypatch, small_cfg, small_fitted
):
    grid = (
        scene_config(small_cfg, 1, stream="eval"), DEFAULT_EVAL_T, 1, 0,
        [(small_fitted.params, small_fitted.codebook)], (0.0, 0.8), (0.0, 2.0), (0, 1),
    )
    dropped = pipeline._scene_links(*grid, 0, (True, False))

    def corrupt(*args, **kwargs):
        raise SymbolOutOfRangeError("corrupt stream")

    monkeypatch.setattr(pipeline, "decode_latents", corrupt)
    links = pipeline._scene_links(*grid, None, (True, False))
    assert len(links) == len(dropped) == 16
    for link, no_link in zip(links, dropped):
        assert link.failed and link.within_budget
        assert not no_link.failed and not no_link.within_budget
        assert link.fusion_mse == no_link.fusion_mse
        assert link.recon_mse == no_link.recon_mse
        assert link.payload_bytes == no_link.payload_bytes


def test_scene_links_are_run_link_at_each_point_in_walk_order(small_cfg, small_fitted):
    # One list per scene, in (sigma, delay, tau, codec, decoder) order; each
    # entry is the link run_link evaluates at its point.
    params, cb = small_fitted.params, small_fitted.codebook
    halved = dataclasses.replace(params, w_cond=params.w_cond / 2)
    codecs = [(params, cb), (halved, cb)]
    cfg_s = scene_config(small_cfg, 2, stream="eval")
    sigmas, delays, taus, decoders = (0.0, 1.5), (0, 3), (0.0, 0.8), (True, False)
    links = pipeline._scene_links(
        cfg_s, DEFAULT_EVAL_T, 1, 0, codecs, taus, sigmas, delays, None, decoders
    )
    points = list(itertools.product(sigmas, delays, taus, codecs, decoders))
    assert len(links) == len(points) == 32
    for link, (sigma, delay, tau, (p, c), conditional) in zip(links, points):
        assert link == run_link(
            cfg_s, DEFAULT_EVAL_T, 1, 0, p, c, tau=tau, sigma_pose=sigma, delay=delay,
            conditional=conditional,
        )


def _csv_sha256(rows) -> str:
    handle = io.StringIO()
    write_csv(rows, handle)
    return hashlib.sha256(handle.getvalue().encode("ascii")).hexdigest()


# CSV digests of the small-config sweeps, recorded before the receiver
# decoded each message's symbols once and built one context per scene; any
# output bit that moves changes them. The tau = 0.7 and 0.9 digests and the
# rd sweep's were re-recorded when masks keeping under half their cells took
# the run-form mask section; only their payload_bytes column moved.
_PINNED_ROBUSTNESS_CSV = {
    0.0: "eaf53263a50d86b8e6803ef021b4550d33715fc857752ee35d675aa770568f0c",
    0.7: "b032e9e72d8a04080c3b60c856312ca7526744900f798ef4cf199e57959aeb0e",
    0.9: "36302c57cb49cd7c03a4c960c9416cffb49c3d833000ac60efdaeab3172d10eb",
}
_PINNED_RD_CSV = "0934155f2ee5b45aa49de6dc41d8871887aaf40fbb2e17860c0ab45729a082ca"


@pytest.mark.parametrize("tau", sorted(_PINNED_ROBUSTNESS_CSV))
def test_robustness_sweep_csv_bytes_are_pinned(small_cfg, small_fitted, tau):
    rows = robustness_sweep(
        small_cfg, (0.0, 1.5, 4.0), (0, 2), small_fitted.params, small_fitted.codebook,
        tau=tau, scenes=2,
    )
    assert _csv_sha256(rows) == _PINNED_ROBUSTNESS_CSV[tau]


def test_rd_sweep_csv_bytes_are_pinned(small_cfg):
    rows = rd_sweep(
        small_cfg, taus=(0.0, 0.5, 0.8, 0.9), codebook_sizes=(4, 16), embed_dim=8,
        scenes_per_point=2, train_scenes=2,
    )
    assert _csv_sha256(rows) == _PINNED_RD_CSV


def test_csv_roundtrip_and_sorted_emission(tmp_path, small_cfg):
    rows = [
        SweepRow(0.5, 16, 8, 0.9, 0.0, 0, 100.0, 0.5, 0.25, 1, 7, 2),
        SweepRow(0.0, 16, 8, 0.9, 0.0, 0, 300.0, 0.4, 0.20, 1, 7, 2),
        SweepRow(0.0, 16, 8, 0.9, 0.0, 0, 310.0, 0.45, 0.22, 0, 7, 2),
    ]
    path = tmp_path / "sweep.csv"
    write_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    loaded = read_csv(path)
    # Sorted: tau ascending, conditional=1 before 0 at equal knobs.
    assert loaded == [rows[1], rows[2], rows[0]]
    buf = io.StringIO()
    write_csv(rows, buf)
    assert buf.getvalue() == text


def test_csv_columns_follow_header_names(tmp_path):
    # A distinct value in every field, so swapping two SweepRow fields (or
    # two header names) puts some value under the wrong column.
    row = SweepRow(
        tau=0.25,
        codebook_size=16,
        embed_dim=8,
        rho=0.875,
        sigma_pose=1.5,
        delay=3,
        payload_bytes=1234.5,
        recon_mse=0.125,
        fusion_mse=0.0625,
        conditional=1,
        seed=7,
        scenes=5,
    )
    path = tmp_path / "row.csv"
    write_csv([row], path)
    header, line = path.read_text().splitlines()
    assert header == CSV_HEADER
    column = dict(zip(header.split(","), line.split(",")))
    attribute = {"K": "codebook_size", "D": "embed_dim"}
    assert len(column) == 12
    for name, text in column.items():
        value = getattr(row, attribute.get(name, name))
        assert type(value)(text) == value, name
    assert read_csv(path) == [row]


_CSV_HEADER_LINE = CSV_HEADER.encode("ascii")
_CSV_ROW = b"0.5,8,8,0.9,0,0,100.0,0.25,0.125,1,7,1"


@pytest.mark.parametrize(
    "header, row, lineno, detail",
    [
        (_CSV_HEADER_LINE, _CSV_ROW + b"\xe9", 2, "non-ASCII byte 0xe9 at column 39"),
        (_CSV_HEADER_LINE[:-1], _CSV_ROW, 1, "unexpected CSV header"),
        (_CSV_HEADER_LINE, _CSV_ROW + b",2", 2, "expected 12 CSV fields, got 13"),
        (_CSV_HEADER_LINE, _CSV_ROW.replace(b",8,8,", b",8,8.5,"), 2,
         "invalid literal for int() with base 10: '8.5'"),
    ],
    ids=["non-ascii", "header", "field-count", "unparseable"],
)
def test_read_csv_rejects_a_malformed_line_naming_path_and_line(
    tmp_path, header, row, lineno, detail
):
    path = tmp_path / "sweep.csv"
    path.write_bytes(_CSV_HEADER_LINE + b"\n" + _CSV_ROW + b"\n")
    assert len(read_csv(path)) == 1
    path.write_bytes(header + b"\n" + row + b"\n")
    with pytest.raises(FormatError) as info:
        read_csv(path)
    assert str(info.value).startswith(f"{path}:{lineno}: ")
    assert detail in str(info.value)


def test_read_csv_breaks_lines_at_lf_crlf_and_a_lone_cr(tmp_path):
    path = tmp_path / "sweep.csv"
    for eol in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(_CSV_HEADER_LINE + eol + _CSV_ROW + eol + _CSV_ROW + eol)
        assert len(read_csv(path)) == 2
    path.write_bytes(b"")
    with pytest.raises(FormatError, match=r"sweep.csv:1: unexpected CSV header: ''"):
        read_csv(path)


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "sweep.csv"
    row = SweepRow(0.5, 8, 8, 0.9, 0.0, 0, 100.0, 0.25, 0.125, 1, 7, 1)
    write_csv([row, dataclasses.replace(row, tau=0.25, sigma_pose=1.5, delay=3)], path)
    return path, path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_csv_file_reads_or_raises_format_error(csv_file, data):
    path, clean = csv_file
    path.write_bytes(data.draw(mutated_text(clean)))
    try:
        rows = read_csv(path)
    except FormatError:
        return
    assert all(isinstance(row, SweepRow) for row in rows)


def test_write_csv_is_byte_deterministic(tmp_path, small_cfg):
    rows = rd_sweep(
        small_cfg, taus=[0.0, 0.5], codebook_sizes=[8], embed_dim=8,
        scenes_per_point=1, train_scenes=2,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(rows, p1)
    write_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_summarize_rows():
    rows = [
        SweepRow(0.0, 16, 8, 0.9, 0.0, 0, 300.0, 0.4, 0.2, 1, 7, 2),
        SweepRow(0.5, 16, 8, 0.9, 0.0, 0, 100.0, 0.5, 0.3, 1, 7, 2),
    ]
    summary = summarize_rows(rows)
    lines = summary.strip().splitlines()
    assert lines[0].startswith("K,D,conditional")
    assert lines[1].split(",")[:4] == ["16", "8", "1", "2"]
