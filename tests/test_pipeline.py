import io

import numpy as np
import pytest

from dsc_codec import (
    ConfigError,
    FeatureMap,
    InsufficientDataError,
    ScenarioConfig,
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
from dsc_codec import pipeline, quantizer, simulate
from dsc_codec.pipeline import (
    CSV_HEADER,
    DEFAULT_EVAL_T,
    SweepRow,
    read_csv,
    summarize_rows,
)
from dsc_codec.pruning import mask_from_scores, score_map
from dsc_codec.simulate import generate_scene, observe, scene_config
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
    mask_bytes = (small_cfg.height * small_cfg.width + 7) // 8
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
    frames = _count_calls(monkeypatch, pipeline, "generate_frames")
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
    frames = _count_calls(monkeypatch, pipeline, "generate_frames")
    with pytest.raises(ConfigError):
        robustness_sweep(
            small_cfg, sigmas, delays, small_fitted.params, small_fitted.codebook, scenes=2
        )
    assert frames == []


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
    frames = _count_calls(monkeypatch, pipeline, "generate_frames")
    args = dict(taus=[0.0], codebook_sizes=[8], embed_dim=8, scenes_per_point=1, train_scenes=2)
    args.update(kwargs)
    with pytest.raises(ConfigError):
        rd_sweep(small_cfg, **args)
    assert scenes == [] and frames == []


@pytest.mark.parametrize(
    "kwargs",
    [{"codebook_size": 0}, {"embed_dim": 0}, {"train_scenes": 0}],
)
def test_fit_codec_rejects_invalid_arguments_before_simulating(monkeypatch, small_cfg, kwargs):
    scenes = _count_calls(monkeypatch, pipeline, "generate_scene")
    with pytest.raises(ConfigError):
        fit_codec(small_cfg, **{"codebook_size": 4, "embed_dim": 4, "train_scenes": 2, **kwargs})
    assert scenes == []


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
