import copy
import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

from dsc_codec import (
    Codebook,
    CodebookMismatchError,
    CodecParams,
    ConfigError,
    DecodeError,
    FeatureMap,
    FormatError,
    FrequencyTable,
    HeaderMismatchError,
    InsufficientDataError,
    ShapeMismatchError,
    Mask,
    MessageParseError,
    StepRejectedError,
    build_freq_table,
    decode_latents,
    decode_message,
    encode_message,
    finetune_step,
    fit_conditional_decoder,
    fit_encoder_projection,
    load_codebook,
    load_codec_params,
    load_feature_map,
    mse,
    rans_decode,
    rans_encode,
    reconstruct,
    save_codebook,
    save_codec_params,
    save_feature_map,
    si_context,
    translate,
)
import dsc_codec.codec as codec_module
import dsc_codec.quantizer as quantizer_module
from dsc_codec.codec import _GATHER_MAX_SHARE, project_cells
from dsc_codec.features import apply_mask
from dsc_codec.pruning import mask_from_scores, score_map
from dsc_codec.quantizer import codebook_hash, dequantize, quantize_map
from dsc_codec.simulate import generate_scene, observe
from dsc_codec.wire import MAX_MESSAGE_PRECISION, Message
from tests.test_wire import independent_run_form

RT2 = 1.0 / np.sqrt(2.0)


def make_params(projection, mean, cb=None, **kw):
    return CodecParams(
        projection=projection,
        mean=mean,
        codebook_hash=cb.version_hash if cb is not None else 0,
        **kw,
    )


# ---------------------------------------------------------------- projection


def test_pca_exact_subspace_reconstructs_training_data(rng):
    basis = np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :3]
    coords = rng.normal(size=(500, 3))
    data = coords @ basis.T + rng.normal(size=6)
    f = FeatureMap(data.T.reshape(6, 20, 25))
    proj, mean = fit_encoder_projection([f], 3)
    recon = (data - mean) @ proj.T @ proj + mean
    assert np.allclose(recon, data, atol=1e-8)


def test_pca_full_rank_is_orthonormal(rng):
    f = FeatureMap(rng.normal(size=(5, 30, 30)))
    proj, _ = fit_encoder_projection([f], 5)
    assert np.allclose(proj @ proj.T, np.eye(5), atol=1e-6)


def test_pca_line_direction_and_sign_convention(rng):
    # Data on the line y = x: covariance prop. to [[1,1],[1,1]], whose top
    # eigenvector is (1,1)/sqrt(2).
    t = rng.normal(size=400)
    data = np.stack([t, t], axis=1)
    f = FeatureMap(data.T.reshape(2, 20, 20))
    proj, _ = fit_encoder_projection([f], 1)
    assert np.allclose(np.abs(proj[0]), [RT2, RT2], atol=1e-9)
    assert proj[0, 0] > 0  # largest-magnitude component made positive


def test_pca_pads_rank_deficient_directions(rng):
    t = rng.normal(size=300)
    data = np.stack([t, t], axis=1)  # rank 1 in 2-d
    f = FeatureMap(data.T.reshape(2, 10, 30))
    proj, _ = fit_encoder_projection([f], 2)
    assert np.allclose(proj[1], 0.0)
    proj3, _ = fit_encoder_projection([f], 3)  # embed_dim beyond channels
    assert proj3.shape == (3, 2)
    assert np.allclose(proj3[1:], 0.0)


def test_pca_mean_and_covariance_match_map_order_reference_bits(rng, monkeypatch):
    # Magnitudes spread over 2^-20..2^10, so float64 sums of the float32
    # cells round and the summation order shows in the bits.
    shapes = ((8, 32, 40), (8, 2, 3), (8, 48, 16))
    maps = [FeatureMap(rng.normal(size=s) * np.exp2(rng.uniform(-20, 10, s))) for s in shapes]
    n = sum(f.height * f.width for f in maps)
    cols = [f.values.reshape(8, -1).astype(np.float64) for f in maps]
    sums = [col.sum(axis=1) for col in cols]
    ref_mean = (sums[0] + sums[1] + sums[2]) / n
    centred = [col - ref_mean[:, None] for col in cols]
    prods = [d @ d.T for d in centred]
    ref_cov = (prods[0] + prods[1] + prods[2]) / n
    covs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: covs.append(a.copy()) or eigh(a))
    _, mean = fit_encoder_projection(maps, 3)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(covs[0], ref_cov)
    # The pooled (N, C) statistics agree up to the summation order.
    x = np.concatenate([f.cell_vectors() for f in maps], axis=0)
    centered = x - x.mean(axis=0)
    assert np.allclose(mean, x.mean(axis=0), rtol=1e-12)
    assert np.allclose(covs[0], centered.T @ centered / n, rtol=1e-12)


def _traced_peak(fn) -> int:
    """Peak traced bytes while fn runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pca_fit_holds_one_map_of_float64_cells_at_a_time(rng):
    # numpy reports its buffers to tracemalloc, so the peaks are exact.
    maps = [FeatureMap(rng.normal(size=(8, 32, 32))) for _ in range(8)]
    one_map = 8 * 32 * 32 * 8
    peak_8 = _traced_peak(lambda: fit_encoder_projection(maps, 4))
    peak_2 = _traced_peak(lambda: fit_encoder_projection(maps[:2], 4))
    assert peak_8 - peak_2 < one_map


def test_pca_insufficient_samples():
    f = FeatureMap(np.zeros((2, 1, 3), dtype=np.float32))
    with pytest.raises(InsufficientDataError):
        fit_encoder_projection([f], 4)


# ---------------------------------------------------------------- si context


def test_si_context_constant_map_interior():
    f = FeatureMap(np.full((3, 8, 8), 2.0, dtype=np.float32))
    ctx = si_context(f, Mask.ones(8, 8)).reshape(8, 8, 3)
    interior = ctx[1:-1, 1:-1]
    assert np.allclose(interior, interior[0, 0])
    # With zero padding the border box-means genuinely differ.
    assert not np.allclose(ctx[0, 0], interior[0, 0])


def test_si_context_zero_map_gives_zero_context():
    # The context is the receiver's own channel-space box mean: it reads
    # nothing of any codec.
    ctx = si_context(FeatureMap.zeros(3, 6, 6), Mask.ones(6, 6))
    assert ctx.shape == (36, 3)
    assert np.array_equal(ctx, np.zeros((36, 3)))


def test_si_context_delta_support_is_box_neighborhood():
    values = np.zeros((2, 9, 9), dtype=np.float32)
    values[:, 4, 4] = 1.0
    ctx = si_context(FeatureMap(values), Mask.ones(9, 9)).reshape(9, 9, 2)
    nonzero = np.any(ctx != 0.0, axis=2)
    expected = np.zeros((9, 9), dtype=bool)
    expected[3:6, 3:6] = True
    assert np.array_equal(nonzero, expected)


def _reference_context(f, mask):
    # The channel-space definition: zero-padded uniform_filter box mean of the
    # whole map, keeping the masked rows.
    values = f.values.astype(np.float64)
    r = codec_module._CONTEXT_RADIUS
    if r > 0:
        values = uniform_filter(values, size=(1, 2 * r + 1, 2 * r + 1), mode="constant", cval=0.0)
    return values.reshape(f.channels, -1).T[mask.bits.ravel()]


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_si_context_matches_channel_space_box_mean(radius, monkeypatch):
    monkeypatch.setattr(codec_module, "_CONTEXT_RADIUS", radius)
    rng = np.random.default_rng(100 + radius)
    c, h, w = 5, 11, 13
    f = FeatureMap(rng.normal(size=(c, h, w)))
    single = np.zeros((h, w), dtype=bool)
    single[5, 6] = True
    border = np.zeros((h, w), dtype=bool)
    border[0, 0] = border[h - 1, 3] = border[4, w - 1] = True
    masks = [
        Mask.zeros(h, w),
        Mask(single),
        Mask(border),
        Mask(rng.random((h, w)) < 0.1),
        Mask(rng.random((h, w)) < 0.6),
        Mask.ones(h, w),
    ]
    for mask in masks:
        ctx = si_context(f, mask)
        assert ctx.dtype == np.float64
        assert ctx.shape == (mask.count(), c)
        np.testing.assert_allclose(ctx, _reference_context(f, mask), rtol=1e-12, atol=0.0)


def test_si_context_rejects_mask_of_other_shape():
    with pytest.raises(ShapeMismatchError):
        si_context(FeatureMap.zeros(2, 4, 4), Mask.ones(4, 5))


@pytest.mark.parametrize("radius", [1, 2])
def test_si_context_gather_and_slices_are_bit_identical(radius, monkeypatch):
    # The share of kept cells picks the strategy: just below the switch point
    # si_context gathers rows, at or above it it adds whole-map slices. On
    # the same inputs each strategy, forced either way, must give the bits
    # of the unforced call and of the whole-map context gathered at the mask.
    monkeypatch.setattr(codec_module, "_CONTEXT_RADIUS", radius)
    rng = np.random.default_rng(7 + radius)
    c, h, w = 3, 16, 20
    # Values over 2^-40..2^40 make float64 window sums round, so a change
    # in the order of the adds changes their bits.
    f = FeatureMap(rng.normal(size=(c, h, w)) * np.exp2(rng.integers(-40, 41, size=(c, h, w))))
    order = rng.permutation(h * w)
    switch = int(np.ceil(_GATHER_MAX_SHARE * h * w))
    below = np.zeros(h * w, dtype=bool)
    below[order[: switch - 1]] = True
    above = below.copy()
    above[order[switch - 1 : switch + 1]] = True
    below, above = Mask(below.reshape(h, w)), Mask(above.reshape(h, w))
    assert below.count() < _GATHER_MAX_SHARE * h * w <= above.count()

    everywhere = si_context(f, Mask.ones(h, w))
    for mask in (below, above):
        chosen = si_context(f, mask)
        with monkeypatch.context() as patch:
            patch.setattr(codec_module, "_GATHER_MAX_SHARE", 2.0)
            gathered = si_context(f, mask)
            patch.setattr(codec_module, "_GATHER_MAX_SHARE", 0.0)
            sliced = si_context(f, mask)
        assert chosen.dtype == gathered.dtype == sliced.dtype == np.float64
        assert np.array_equal(gathered, sliced)
        assert np.array_equal(chosen, sliced)
        assert np.array_equal(chosen, everywhere[mask.bits.ravel()])


@pytest.mark.parametrize("radius", [1, 2])
def test_whole_map_context_gathered_at_a_mask_equals_si_context(radius, monkeypatch):
    # A receiver builds its context once at every cell and gathers each
    # link's rows from it. Masks just below and just above the gather/slice
    # switch hold border cells and cells that a pose shift zero-filled.
    monkeypatch.setattr(codec_module, "_CONTEXT_RADIUS", radius)
    rng = np.random.default_rng(40 + radius)
    c, h, w = 4, 16, 20
    # Rows 0-2 and columns w-2, w-1 are zero after the shift. Values over
    # 2^-40..2^40 make float64 window sums round, so the gather and slice
    # branches must add in the same order to agree.
    values = rng.normal(size=(c, h, w)) * np.exp2(rng.integers(-40, 41, size=(c, h, w)))
    f = translate(FeatureMap(values), 3, -2)
    everywhere = si_context(f, Mask.ones(h, w))
    forced = [0, w - 1, (h - 1) * w, h * w - 1, 1 * w + 5, 8 * w + w - 1, 9 * w]
    rest = [cell for cell in rng.permutation(h * w) if cell not in forced]
    order = forced + rest
    switch = int(np.ceil(_GATHER_MAX_SHARE * h * w))
    for count in (switch - 1, switch + 1):
        bits = np.zeros(h * w, dtype=bool)
        bits[order[:count]] = True
        mask = Mask(bits.reshape(h, w))
        assert (count < _GATHER_MAX_SHARE * h * w) == (count == switch - 1)
        assert np.array_equal(everywhere[mask.bits.ravel()], si_context(f, mask))


# ------------------------------------------------------------ encode / decode


def test_encode_empty_mask_yields_parseable_zero_symbol_message(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap.zeros(small_cfg.channels, small_cfg.height, small_cfg.width)
    mask = Mask.zeros(small_cfg.height, small_cfg.width)
    msg = encode_message(f, mask, params, cb)
    assert msg.num_symbols == 0 and msg.payload == b""
    again = Message.from_bytes(msg.to_bytes())
    assert again.num_symbols == 0
    out = decode_message(msg, params, cb, f_local=f)
    assert np.all(out.values == 0.0)
    assert np.all(decode_message(msg, params, cb).values == 0.0)


def test_encode_is_deterministic(small_cfg, small_fitted, rng):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    mask = Mask.ones(small_cfg.height, small_cfg.width)
    assert encode_message(f, mask, params, cb).to_bytes() == encode_message(
        f, mask, params, cb
    ).to_bytes()


def test_encoder_is_independent_of_receiver(small_cfg, small_fitted, rng):
    # The message must be a pure function of sender-side inputs: interleave
    # decodes against arbitrary receiver features and re-encode each time.
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    mask = Mask.ones(small_cfg.height, small_cfg.width)
    reference = encode_message(f, mask, params, cb).to_bytes()
    for trial in range(20):
        receiver = FeatureMap(
            rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width))
        )
        decode_message(Message.from_bytes(reference), params, cb, f_local=receiver)
        assert encode_message(f, mask, params, cb).to_bytes() == reference


@pytest.mark.parametrize("share", [0.05, 0.5])
def test_encoder_reads_only_the_kept_cells(small_cfg, small_fitted, rng, share):
    # Pruned cells never reach the wire: an unpruned map and its pruned copy
    # code to the same bytes.
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    mask = Mask(rng.random((small_cfg.height, small_cfg.width)) < share)
    assert encode_message(f, mask, params, cb).to_bytes() == encode_message(
        apply_mask(f, mask), mask, params, cb
    ).to_bytes()


def test_decode_is_deterministic(small_cfg, small_fitted, rng):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    local = FeatureMap(rng.normal(size=f.shape))
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)
    a = decode_message(msg, params, cb, f_local=local)
    b = decode_message(msg, params, cb, f_local=local)
    assert np.array_equal(a.values, b.values)


def _single_stage_decode(msg, params, cb, f_local):
    # The decode as one body: symbols, codewords, design rows, matmul, scatter.
    out = np.zeros((msg.channels, msg.height, msg.width), dtype=np.float32)
    if msg.num_symbols:
        table = FrequencyTable(msg.freqs, msg.precision)
        deq = dequantize(rans_decode(msg.payload, table, msg.num_symbols, msg.final_state), cb)
        blocks = [deq] if f_local is None else [deq, si_context(f_local, msg.mask)]
        w = params.w_uncond if f_local is None else params.w_cond
        recon = np.concatenate(blocks + [np.ones((len(deq), 1))], axis=1) @ w
        out.reshape(msg.channels, -1)[:, msg.mask.bits.ravel()] = recon.T.astype(np.float32)
    return out


@pytest.mark.parametrize("tau", [0.0, 0.8])
@pytest.mark.parametrize("conditional", [True, False])
def test_decode_message_is_reconstruct_of_decode_latents(small_cfg, small_fitted, tau, conditional):
    params, cb = small_fitted.params, small_fitted.codebook
    scene = generate_scene(small_cfg, 0)
    sender, local = observe(scene, 1, small_cfg), observe(scene, 0, small_cfg)
    mask = mask_from_scores(score_map(sender), tau)
    # tau=0 keeps every cell (whole-map context sums), tau=0.8 a few (row gathers).
    assert (mask.count() < _GATHER_MAX_SHARE * mask.bits.size) == (tau > 0)
    msg = encode_message(apply_mask(sender, mask), mask, params, cb)
    f_local = local if conditional else None

    latents = decode_latents(msg, params, cb)
    assert latents.shape == (mask.count(), params.embed_dim)
    context = si_context(local, mask) if conditional else None
    staged = reconstruct(msg, latents, params, context)
    whole = decode_message(msg, params, cb, f_local=f_local)
    assert np.array_equal(whole.values, staged.values)
    assert np.array_equal(whole.values, _single_stage_decode(msg, params, cb, f_local))


def _band_case(n, full):
    # A full mask is a whole map of n cells; a sparse one codes n cells of 128x128.
    if full:
        h = next(h for h in range(int(np.sqrt(n)), 0, -1) if n % h == 0)
        return Mask.ones(h, n // h)
    bits = np.zeros(128 * 128, dtype=bool)
    bits[np.random.default_rng(n).choice(bits.size, n, replace=False)] = True
    return Mask(bits.reshape(128, 128))


@pytest.mark.parametrize("conditional", [True, False])
@pytest.mark.parametrize(
    "n, full",
    [(n, True) for n in (1, 511, 512, 513, 1027, 16384)]
    + [(n, False) for n in (0, 1, 511, 512, 513, 1027)],
)
def test_reconstruct_bands_equal_the_whole_product_bit_for_bit(n, full, conditional):
    # reconstruct takes the decoder product band by band; each band must give
    # the bits of the whole (n, row) @ w product, cast to float32 and
    # scattered onto the coded cells. The codec has the acceptance geometry.
    rng = np.random.default_rng(5)
    c, d = 32, 16
    cb = Codebook(rng.normal(size=(64, d)))
    params = make_params(
        rng.normal(size=(d, c)) / np.sqrt(c),
        rng.normal(size=c),
        cb,
        w_cond=rng.normal(size=(d + c + 1, c)),
        w_uncond=rng.normal(size=(d + 1, c)),
    )
    mask = _band_case(n, full)
    assert mask.count() == n and mask.bits.all() == full
    f = FeatureMap(rng.normal(size=(c, *mask.bits.shape)))
    msg = encode_message(apply_mask(f, mask), mask, params, cb)
    latents = decode_latents(msg, params, cb)
    local = FeatureMap(rng.normal(size=f.shape))
    context = si_context(local, mask) if conditional else None
    w = params.w_cond if conditional else params.w_uncond
    rows = (codec_module._design(latents, context) @ w).astype(np.float32)
    expected = np.zeros(f.shape, dtype=np.float32)
    expected.reshape(c, -1)[:, mask.bits.ravel()] = rows.T
    got = reconstruct(msg, latents, params, context).values
    assert got.dtype == np.float32 and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "n, bands",
    [
        (1, [1]),
        (512, [512]),
        (513, [513]),
        (514, [512, 2]),
        (1025, [512, 513]),
        (1027, [512, 512, 3]),
    ],
)
def test_reconstruct_bands_never_multiply_a_lone_row(monkeypatch, n, bands):
    # OpenBLAS multiplies a one-row matrix with its matrix-vector kernel,
    # which sums in another order than the matrix kernel the whole product
    # uses; so a lone last row joins the band before it.
    rng = np.random.default_rng(6)
    c, d = 4, 2
    cb = Codebook(rng.normal(size=(8, d)))
    params = make_params(
        rng.normal(size=(d, c)), np.zeros(c), cb, w_uncond=rng.normal(size=(d + 1, c))
    )
    mask = _band_case(n, full=False)
    f = FeatureMap(rng.normal(size=(c, 128, 128)))
    msg = encode_message(apply_mask(f, mask), mask, params, cb)
    seen = []
    design = codec_module._design

    def recording(latents, ctx):
        seen.append(len(latents))
        return design(latents, ctx)

    monkeypatch.setattr(codec_module, "_design", recording)
    reconstruct(msg, decode_latents(msg, params, cb), params)
    assert seen == bands


def test_reconstruct_checks_its_rows_and_decoder(small_cfg, small_fitted):
    params, cb = small_fitted.params, small_fitted.codebook
    scene = generate_scene(small_cfg, 0)
    sender, local = observe(scene, 1, small_cfg), observe(scene, 0, small_cfg)
    mask = mask_from_scores(score_map(sender), 0.5)
    msg = encode_message(apply_mask(sender, mask), mask, params, cb)
    latents = decode_latents(msg, params, cb)
    context = si_context(local, mask)
    with pytest.raises(ShapeMismatchError, match="latents must have shape"):
        reconstruct(msg, latents[1:], params, context)
    with pytest.raises(ShapeMismatchError, match="context must have shape"):
        reconstruct(msg, latents, params, context[:, 1:])
    with pytest.raises(ConfigError, match=r"\(w_cond\) is not fitted"):
        reconstruct(msg, latents, dataclasses.replace(params, w_cond=None), context)
    empty = encode_message(FeatureMap.zeros(*sender.shape), Mask.zeros(*mask.bits.shape), params, cb)
    assert decode_latents(empty, params, cb).shape == (0, params.embed_dim)


def test_decode_error_taxonomy(small_cfg, small_fitted, rng):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)

    with pytest.raises(MessageParseError):
        Message.from_bytes(msg.to_bytes()[:-2])

    other_cb = Codebook(rng.normal(size=(cb.size, cb.dim)))
    with pytest.raises(CodebookMismatchError):
        decode_message(msg, params, other_cb, f_local=f)

    from dsc_codec import SymbolOutOfRangeError, dequantize

    with pytest.raises(SymbolOutOfRangeError):
        dequantize([cb.size], cb)


def test_decode_without_local_feature_never_computes_context(
    monkeypatch, small_cfg, small_fitted, rng
):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)
    calls = []
    original = codec_module.si_context

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codec_module, "si_context", counting)
    decode_message(msg, params, cb)
    assert calls == []
    decode_message(msg, params, cb, f_local=f)
    assert len(calls) == 1


@pytest.mark.parametrize("missing, conditional", [("w_cond", True), ("w_uncond", False)])
def test_decode_names_the_decoder_that_is_not_fitted(
    small_cfg, small_fitted, rng, missing, conditional
):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)
    unfitted = dataclasses.replace(params, **{missing: None})
    with pytest.raises(ConfigError, match=rf"\({missing}\) is not fitted"):
        decode_message(msg, unfitted, cb, f_local=f if conditional else None)
    # The other decoder is still fitted and still decodes.
    decode_message(msg, unfitted, cb, f_local=None if conditional else f)


# ------------------------------------------------------ receiver contract

@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_overflowing_decoder_raises_config_error_without_warning(scale, full):
    # Finite weights that drive a reconstruction past float32 range (1e300)
    # or past float64 range (1e308) raise ConfigError and nothing else;
    # pytest turns any numpy overflow warning into an error.
    rng = np.random.default_rng(0)
    c, h, w, d = 4, 5, 5, 2
    cb = Codebook(rng.normal(size=(3, d)))
    params = make_params(
        rng.normal(size=(d, c)),
        np.zeros(c),
        cb,
        w_cond=np.full((d + c + 1, c), scale),
        w_uncond=np.full((d + 1, c), scale),
    )
    f = FeatureMap(rng.normal(size=(c, h, w)))
    mask = Mask.ones(h, w) if full else Mask(rng.random((h, w)) < 0.5)
    msg = encode_message(apply_mask(f, mask), mask, params, cb)
    latents = decode_latents(msg, params, cb)
    for local in (f, None):
        with pytest.raises(ConfigError, match="feature map contains non-finite values"):
            decode_message(msg, params, cb, f_local=local)
    with pytest.raises(ConfigError, match="feature map contains non-finite values"):
        reconstruct(msg, latents, params, si_context(f, mask))


def test_codebook_hash_is_computed_once_per_codebook(monkeypatch, small_cfg, small_fitted):
    calls = []

    def counting_hash(codewords):
        calls.append(1)
        return codebook_hash(codewords)

    monkeypatch.setattr(quantizer_module, "codebook_hash", counting_hash)
    params = small_fitted.params
    cb = Codebook(small_fitted.codebook.codewords)
    assert len(calls) == 1
    scene = generate_scene(small_cfg, 0)
    sender, local = observe(scene, 1, small_cfg), observe(scene, 0, small_cfg)
    mask = mask_from_scores(score_map(sender), 0.5)
    msg = encode_message(apply_mask(sender, mask), mask, params, cb)
    decode_message(msg, params, cb, f_local=local)
    decode_message(msg, params, cb)
    assert len(calls) == 1
    assert cb.version_hash == codebook_hash(cb.codewords) == params.codebook_hash
    assert "version_hash" not in repr(cb)
    assert [f.name for f in dataclasses.fields(Codebook) if f.init or f.compare] == ["codewords"]
    with pytest.raises(TypeError):
        Codebook(cb.codewords, cb.version_hash)


def _containers(cfg, fitted):
    """One instance of every frozen container that stores an ndarray."""
    scene = generate_scene(cfg, 0)
    sender = observe(scene, 1, cfg)
    mask = mask_from_scores(score_map(sender), 0.5)
    msg = encode_message(apply_mask(sender, mask), mask, fitted.params, fitted.codebook)
    return {
        "CodecParams": fitted.params,
        "DecoderFit": fitted.decoder_fit,
        "Codebook": fitted.codebook,
        "FeatureMap": sender,
        "Mask": mask,
        "ScoreMap": score_map(sender),
        "FrequencyTable": FrequencyTable(np.array([1000, 24, 3072]), 12),
        "Message": msg,
        "Scene": scene,
    }


@pytest.mark.parametrize(
    "name",
    ["CodecParams", "DecoderFit", "Codebook", "FeatureMap", "Mask", "ScoreMap", "FrequencyTable",
     "Message", "Scene"],
)
def test_frozen_containers_compare_and_hash_by_identity(small_cfg, small_fitted, name):
    a = _containers(small_cfg, small_fitted)[name]
    twin = copy.copy(a)
    assert a == a
    assert a != twin
    assert len({a, a, twin}) == 2


# Fixed header: magic, version, flags, C, H, W, D, K, p, codebook hash.
_HEADER = struct.Struct("<4sBBHHHHHBQ")
# The container headers, written out independently of the package. DCCP:
# magic, version, flags (bit 0: w_cond saved, bit 1: w_uncond saved), C, D
# and codebook hash.
_DCCP_HEADER = struct.Struct("<4sBBHHQ")
_CONTAINER_HEADERS = {
    "fmap": struct.Struct("<4sHHH"),  # magic, C, H, W
    "cdbk": struct.Struct("<4sHHQ"),  # magic, K, D, codebook hash
    "dccp": _DCCP_HEADER,
}


def _coded_link(cfg, fitted, tau):
    """A real small-scene message pruned at tau, and its receiver map."""
    scene = generate_scene(cfg, 0)
    sender, local = observe(scene, 1, cfg), observe(scene, 0, cfg)
    mask = mask_from_scores(score_map(sender), tau)
    pruned = FeatureMap(sender.values * mask.bits[np.newaxis])
    msg = encode_message(pruned, mask, fitted.params, fitted.codebook)
    return msg.to_bytes(), local


@pytest.fixture(scope="module")
def coded_link(small_cfg, small_fitted):
    """tau=0.5: a mixed mask, sent as packed bits."""
    return _coded_link(small_cfg, small_fitted, 0.5)


@pytest.fixture(scope="module")
def sparse_coded_link(small_cfg, small_fitted):
    """tau=0.8: a sparse mask, sent in the run form."""
    return _coded_link(small_cfg, small_fitted, 0.8)


def test_coded_links_send_both_mask_forms(coded_link, sparse_coded_link, small_cfg):
    cells = small_cfg.height * small_cfg.width
    for (clean, _), packed in ((coded_link, True), (sparse_coded_link, False)):
        (mask_len,) = struct.unpack_from("<I", clean, _HEADER.size)
        kept = Message.from_bytes(clean).num_symbols
        assert (2 * kept >= cells) is packed
        assert (mask_len == cells // 8) is packed
        assert mask_len <= cells // 8


def _receive(data, f_local, fitted, conditional):
    msg = Message.from_bytes(data)
    return decode_message(
        msg, fitted.params, fitted.codebook, f_local=f_local if conditional else None
    )


def _corrupt(draw, data: bytes, header: struct.Struct) -> bytes:
    """data with one to three bits flipped, cut short, or with one header field
    after the magic set to any value of its type (a float field may be NaN)."""
    kind = draw(st.sampled_from(["flip", "truncate", "header"]))
    if kind == "flip":
        out = bytearray(data)
        for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=3)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    fields = list(header.unpack_from(data))
    i = draw(st.integers(1, len(fields) - 1))
    code = re.findall(r"\d*[a-zA-Z]", header.format)[i]  # "B", "H", "Q", "d", ...
    bits = 8 * struct.calcsize("<" + code)
    fields[i] = draw(st.floats() if code == "d" else st.integers(0, (1 << bits) - 1))
    return header.pack(*fields) + data[header.size :]


def _receive_corrupted(link, fitted, data) -> None:
    """The receiver contract: whatever bytes arrive, parse + decode either
    returns a reconstruction or raises a DecodeError subclass, and bytes the
    parser accepts are exactly the ones their message serializes to."""
    clean, local = link
    corrupted = _corrupt(data.draw, clean, _HEADER)
    conditional = data.draw(st.booleans())
    try:
        msg = Message.from_bytes(corrupted)
    except DecodeError:
        return
    assert msg.to_bytes() == corrupted
    try:
        recon = decode_message(
            msg, fitted.params, fitted.codebook, f_local=local if conditional else None
        )
    except DecodeError:
        return
    assert isinstance(recon, FeatureMap)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_corrupted_message_decodes_or_raises_decode_error(coded_link, small_fitted, data):
    _receive_corrupted(coded_link, small_fitted, data)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_corrupted_run_form_message_decodes_or_raises_decode_error(
    sparse_coded_link, small_fitted, data
):
    _receive_corrupted(sparse_coded_link, small_fitted, data)


@pytest.fixture(scope="module")
def container_files(tmp_path_factory, small_cfg, small_fitted):
    """Per container: a path to write to, a valid file's bytes and the loader."""
    root = tmp_path_factory.mktemp("containers")
    local = observe(generate_scene(small_cfg, 0), 0, small_cfg)
    files = {}
    for ext, save, load, value in (
        ("fmap", save_feature_map, load_feature_map, local),
        ("cdbk", save_codebook, load_codebook, small_fitted.codebook),
        ("dccp", save_codec_params, load_codec_params, small_fitted.params),
    ):
        path = root / f"file.{ext}"
        save(value, path)
        files[ext] = (path, path.read_bytes(), load)
    return files


@pytest.mark.parametrize("ext", ["fmap", "cdbk", "dccp"])
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_corrupted_container_loads_or_raises_format_error(container_files, ext, data):
    # The loaders' contract: whatever bytes a container file holds, loading it
    # returns a value or raises FormatError, and no other exception type.
    path, clean, load = container_files[ext]
    path.write_bytes(_corrupt(data.draw, clean, _CONTAINER_HEADERS[ext]))
    try:
        load(path)
    except FormatError:
        pass


def test_header_disagreements_raise_decode_errors(coded_link, small_fitted):
    clean, local = coded_link
    # Bit 0 of byte 6 is the low bit of C: the message now claims 9 channels.
    flipped = bytearray(clean)
    flipped[6] ^= 1
    for conditional in (True, False):
        with pytest.raises(HeaderMismatchError) as info:
            _receive(bytes(flipped), local, small_fitted, conditional)
        assert isinstance(info.value, DecodeError)
        assert isinstance(info.value, ShapeMismatchError)
    # A local map whose shape disagrees with the header.
    wrong = FeatureMap(np.zeros((local.channels, local.height, local.width + 1)))
    with pytest.raises(HeaderMismatchError):
        _receive(clean, wrong, small_fitted, True)
    # Zero height with an empty mask section parses as nothing valid.
    fields = list(_HEADER.unpack_from(clean))
    mask_len = struct.unpack_from("<I", clean, _HEADER.size)[0]
    fields[4] = 0
    zero_h = (
        _HEADER.pack(*fields) + struct.pack("<I", 0) + clean[_HEADER.size + 4 + mask_len :]
    )
    with pytest.raises(MessageParseError):
        Message.from_bytes(zero_h)


def test_single_symbol_map_codes_at_every_wire_precision(small_cfg, small_fitted):
    # A constant map quantizes every cell to one codeword, whose frequency
    # is the whole 2^p. The encoder writes p = 12; the wire's u16 table
    # carries that table at every p in [8, 15] and rejects a p outside it.
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(np.ones((small_cfg.channels, small_cfg.height, small_cfg.width)))
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)
    assert msg.precision == 12
    reference = decode_message(msg, params, cb)
    idx = rans_decode(msg.payload, msg.table, msg.num_symbols, msg.final_state)
    for p in (8, 12, MAX_MESSAGE_PRECISION):
        table = build_freq_table(idx, cb.size, p)
        payload, state = rans_encode(idx, table)
        coded = dataclasses.replace(
            msg, precision=p, freqs=table.freqs, payload=payload, final_state=state
        )
        assert np.count_nonzero(coded.freqs) == 1 and coded.freqs.max() == 1 << p
        parsed = Message.from_bytes(coded.to_bytes())
        assert parsed.to_bytes() == coded.to_bytes()
        assert np.array_equal(decode_message(parsed, params, cb).values, reference.values)
    for p in (7, MAX_MESSAGE_PRECISION + 1):
        with pytest.raises(ConfigError):
            dataclasses.replace(msg, precision=p)


def _identity_codec(rng, c, k):
    """A K-codeword codebook on C-dim cells, coded and decoded as they are."""
    cb = Codebook(rng.normal(size=(k, c)))
    w_uncond = np.vstack([np.eye(c), np.zeros((1, c))])
    return make_params(np.eye(c), np.zeros(c), cb=cb, w_uncond=w_uncond), cb


def test_encode_widens_the_table_to_hold_every_distinct_codeword(rng):
    # 128x128 cells against 8192 codewords quantize to more than 2^12
    # distinct codewords, so the table takes p = 13.
    params, cb = _identity_codec(rng, 4, 8192)
    f = FeatureMap(rng.normal(size=(4, 128, 128)))
    msg = encode_message(f, Mask.ones(128, 128), params, cb)
    assert np.count_nonzero(msg.freqs) > 1 << 12
    assert msg.precision == 13
    data = msg.to_bytes()
    parsed = Message.from_bytes(data)
    assert parsed.to_bytes() == data
    recon = decode_message(parsed, params, cb)
    assert np.array_equal(recon.values, decode_message(msg, params, cb).values)
    expected = cb.codewords[quantize_map(project_cells(f.cell_vectors(), params), cb)]
    assert np.array_equal(recon.cell_vectors(), expected)


@pytest.mark.parametrize("distinct", [1 << 15, (1 << 15) + 1])
def test_encode_codes_up_to_the_wire_table_limit_and_rejects_more(monkeypatch, rng, distinct):
    # 256x256 cells quantized (by a stub: a real 40000-codeword search is
    # too slow here) to `distinct` codewords. 2^15 codes at p = 15, the
    # wire's largest; one more is a ConfigError before any rANS work.
    params, cb = _identity_codec(rng, 2, 40000)
    f = FeatureMap(rng.normal(size=(2, 256, 256)))
    idx = np.arange(256 * 256) % distinct
    monkeypatch.setattr(codec_module, "quantize_map", lambda latents, cb: idx)
    if distinct == 1 << 15:
        msg = encode_message(f, Mask.ones(256, 256), params, cb)
        assert msg.precision == 15
        parsed = Message.from_bytes(msg.to_bytes())
        decoded = rans_decode(parsed.payload, parsed.table, parsed.num_symbols, parsed.final_state)
        assert np.array_equal(decoded, idx)
        return

    def no_rans(*args):
        raise AssertionError("rANS work started")

    for name in ("build_freq_table", "rans_encode"):
        monkeypatch.setattr(codec_module, name, no_rans)
    with pytest.raises(ConfigError, match=r"32769 distinct codewords exceed the wire's 2\^15"):
        encode_message(f, Mask.ones(256, 256), params, cb)


def test_messages_keep_the_table_they_checked_and_decoding_builds_none(
    monkeypatch, small_cfg, small_fitted, rng
):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    local = FeatureMap(rng.normal(size=f.shape))
    built = []
    check = FrequencyTable.__post_init__

    def counted(table):
        check(table)
        built.append(table)

    monkeypatch.setattr(FrequencyTable, "__post_init__", counted)
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)
    # The encoder's table, then the one the message checks.
    assert len(built) == 2 and msg.table is built[-1]
    # Neither derived the decoder's slot list: encoding never reads it.
    assert not any("decoder_lists" in vars(table) for table in built)
    parsed = Message.from_bytes(msg.to_bytes())
    assert len(built) == 3 and parsed.table is built[-1]
    for m in (msg, parsed):
        assert np.array_equal(m.table.freqs, m.freqs) and m.table.precision == m.precision
    built.clear()
    decode_latents(parsed, params, cb)
    decode_message(parsed, params, cb, f_local=local)
    decode_message(msg, params, cb)
    assert built == []


def test_encode_rejects_mismatched_codebook(small_cfg, small_fitted, rng):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    other = Codebook(rng.normal(size=(cb.size, cb.dim)))
    with pytest.raises(CodebookMismatchError):
        encode_message(f, Mask.ones(f.height, f.width), params, other)


def test_encode_rate_accounting_at_ten_percent_occupancy(rng):
    # 128x128 map, ~10% occupancy, K = 64: fixed overhead is exactly
    # header 25 + mask(4 + its length field) + N 4 + table 128 +
    # payload-len 4 + state 4, and the rANS payload tracks the realized index
    # entropy. A random 10% mask takes the run form, under the 2048 packed
    # bytes, written exactly as the documented layout gives it.
    c, h, w = 4, 128, 128
    cb = Codebook(rng.normal(size=(64, c)))
    params = make_params(np.eye(c), np.zeros(c), cb=cb)
    f = FeatureMap(rng.normal(size=(c, h, w)))
    bits = rng.random((h, w)) < 0.10
    mask = Mask(bits)
    msg = encode_message(FeatureMap(f.values * bits[np.newaxis]), mask, params, cb)
    data = msg.to_bytes()
    (mask_len,) = struct.unpack_from("<I", data, _HEADER.size)
    section = data[_HEADER.size + 4 : _HEADER.size + 4 + mask_len]
    assert section == independent_run_form(bits.ravel().astype(int).tolist())
    assert mask_len < 2048
    overhead = 25 + 4 + mask_len + 4 + 2 * 64 + 4 + 4
    assert len(data) == overhead + len(msg.payload)

    idx = rans_decode(
        msg.payload, FrequencyTable(msg.freqs, msg.precision), msg.num_symbols, msg.final_state
    )
    counts = np.bincount(idx, minlength=64)
    p = counts[counts > 0] / msg.num_symbols
    entropy = float(-np.sum(p * np.log2(p)))
    assert 8 * len(msg.payload) + 32 <= 1.02 * msg.num_symbols * entropy + 512


# ------------------------------------------------------------------- fitting


def synthetic_pair(rng, c=6, h=12, w=12):
    sender = FeatureMap(rng.normal(size=(c, h, w)))
    receiver = FeatureMap(rng.normal(size=(c, h, w)))
    return sender, Mask.ones(h, w), receiver


def identity_codec(c, cb):
    return make_params(np.eye(c), np.zeros(c), cb=cb)


def test_perfect_side_information_drives_training_mse_to_zero(rng, monkeypatch):
    # Receiver equals sender and the context radius is zero, so the context
    # carries the exact target; with a vanishing ridge the fit is exact.
    monkeypatch.setattr(codec_module, "_CONTEXT_RADIUS", 0)
    monkeypatch.setattr(codec_module, "_RIDGE_LAMBDA", 1e-10)
    c, h, w = 4, 16, 16
    sender = FeatureMap(rng.normal(size=(c, h, w)))
    cb = Codebook(rng.normal(size=(8, c)))
    params = make_params(np.eye(c), np.zeros(c), cb=cb)
    fit = fit_conditional_decoder([(sender, Mask.ones(h, w), sender)], [(params, cb)])[0]
    cells = sender.cell_vectors()
    idx = quantize_map(project_cells(cells, params), cb)
    from dsc_codec.quantizer import dequantize

    x = np.concatenate(
        [dequantize(idx, cb), cells, np.ones((cells.shape[0], 1))], axis=1
    )
    resid = x @ fit.w_cond - cells
    assert float(np.mean(resid**2)) < 1e-10


def test_independent_context_gets_near_zero_weights(rng):
    # Monte-Carlo: receiver is fresh noise, so context carries nothing; its
    # weight block shrinks toward zero as data grows (coefficient noise is
    # O(1/sqrt(M))) and both decoders perform alike.
    c = 5
    cb = Codebook(rng.normal(size=(16, c)))
    params = identity_codec(c, cb)
    pairs = [synthetic_pair(rng, c=c, h=24, w=24) for _ in range(16)]
    fit = fit_conditional_decoder(pairs, [(params, cb)])[0]
    d = params.embed_dim
    ctx_block = fit.w_cond[d : d + c]
    main_block = fit.w_cond[:d]
    assert np.linalg.norm(ctx_block) < 0.1 * np.linalg.norm(main_block)
    assert fit.cond_objective <= fit.uncond_objective
    assert fit.cond_objective == pytest.approx(fit.uncond_objective, rel=0.02)


def test_nested_model_dominance_holds_for_arbitrary_data(rng, monkeypatch):
    c = 3
    for trial in range(25):
        cb = Codebook(rng.normal(size=(4, c)))
        params = identity_codec(c, cb)
        pairs = [synthetic_pair(rng, c=c, h=6, w=6)]
        monkeypatch.setattr(codec_module, "_RIDGE_LAMBDA", 10.0 ** rng.integers(-8, 2))
        fit = fit_conditional_decoder(pairs, [(params, cb)])[0]
        assert fit.cond_objective <= fit.uncond_objective


def _stacked_ridge_reference(pairs, params, cb, lam):
    # The stacked-rows definition of the fit: one design matrix over every
    # unpruned cell of every pair, each decoder solved from it directly.
    rows, targets = [], []
    for sender, mask, receiver in pairs:
        y = sender.cell_vectors()[mask.bits.ravel()]
        deq = dequantize(quantize_map(project_cells(y, params), cb), cb)
        ctx = si_context(receiver, mask)
        rows.append(np.concatenate([deq, ctx, np.ones((len(y), 1))], axis=1))
        targets.append(y)
    x, y = np.concatenate(rows), np.concatenate(targets)
    d = params.embed_dim
    x_uncond = np.concatenate([x[:, :d], x[:, -1:]], axis=1)

    def solve(a):
        return np.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]), a.T @ y)

    w_cond = solve(x)
    resid = x @ w_cond - y
    return w_cond, solve(x_uncond), float(np.sum(resid * resid) + lam * np.sum(w_cond**2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_summed_normal_equations_match_stacked_rows(seed, monkeypatch):
    # D < C, so the C-dim context block is wider than the latent block; the
    # receivers are noisy copies of the senders, so the context matters.
    monkeypatch.setattr(codec_module, "_CONTEXT_RADIUS", seed % 2)
    rng = np.random.default_rng(seed)
    c, d, h, w = 6, 3, 9, 11
    cb = Codebook(rng.normal(size=(8, d)))
    proj = np.linalg.qr(rng.normal(size=(c, c)))[0][:d]
    params = make_params(proj, rng.normal(size=c) * 0.1, cb=cb)
    pairs = []
    for share in (1.0, 0.5, 0.0, 0.2):
        sender = FeatureMap(rng.normal(size=(c, h, w)))
        receiver = FeatureMap(sender.values + 0.5 * rng.normal(size=(c, h, w)))
        mask = Mask(rng.random((h, w)) < share)
        pairs.append((apply_mask(sender, mask), mask, receiver))
    lam = 10.0 ** rng.uniform(-4, 0)
    monkeypatch.setattr(codec_module, "_RIDGE_LAMBDA", lam)
    fit = fit_conditional_decoder(pairs, [(params, cb)])[0]
    w_cond, w_uncond, objective = _stacked_ridge_reference(pairs, params, cb, lam)
    assert fit.w_cond.shape == (d + c + 1, c) and fit.w_uncond.shape == (d + 1, c)
    assert fit.num_cells == sum(mask.count() for _, mask, _ in pairs)
    np.testing.assert_allclose(fit.w_cond, w_cond, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(fit.w_uncond, w_uncond, rtol=1e-8, atol=1e-10)
    assert fit.cond_objective == pytest.approx(objective, rel=1e-9)
    assert fit.cond_objective < fit.uncond_objective


def test_fit_requires_enough_cells(rng):
    c = 4
    cb = Codebook(rng.normal(size=(4, c)))
    params = identity_codec(c, cb)
    sender = FeatureMap(rng.normal(size=(c, 2, 2)))
    with pytest.raises(InsufficientDataError):
        fit_conditional_decoder([(sender, Mask.ones(2, 2), sender)], [(params, cb)])


def test_fit_rejects_pairs_whose_channels_differ_from_the_codec(rng):
    cb = Codebook(rng.normal(size=(4, 4)))
    params = identity_codec(4, cb)
    sender = FeatureMap(rng.normal(size=(3, 4, 4)))
    with pytest.raises(ShapeMismatchError, match="feature has 3 channels, codec expects 4"):
        fit_conditional_decoder([(sender, Mask.ones(4, 4), sender)], [(params, cb)])


def _mixed_codecs_and_pairs(rng):
    # Codecs mix K and D, and the first is repeated; the second pair keeps
    # no cell.
    c, h, w = 5, 9, 11
    basis = np.linalg.qr(rng.normal(size=(c, c)))[0]
    mean = rng.normal(size=c) * 0.1
    codecs = []
    for k, d in ((4, 3), (16, 3), (8, 2), (4, 3), (16, 5)):
        cb = Codebook(rng.normal(size=(k, d)))
        codecs.append((make_params(basis[:d], mean, cb=cb), cb))
    codecs.append(codecs[0])
    pairs = []
    for share in (1.0, 0.0, 0.4, 0.2):
        sender = FeatureMap(rng.normal(size=(c, h, w)))
        receiver = FeatureMap(sender.values + 0.5 * rng.normal(size=(c, h, w)))
        mask = Mask(rng.random((h, w)) < share)
        pairs.append((apply_mask(sender, mask), mask, receiver))
    assert [mask.count() == 0 for _, mask, _ in pairs] == [False, True, False, False]
    return codecs, pairs


def test_one_pass_fit_of_many_codecs_equals_each_one_codec_fit(rng):
    codecs, pairs = _mixed_codecs_and_pairs(rng)
    fits = fit_conditional_decoder(pairs, codecs)
    assert len(fits) == len(codecs)
    for (params, cb), fit in zip(codecs, fits):
        alone = fit_conditional_decoder(pairs, [(params, cb)])[0]
        assert np.array_equal(fit.w_cond, alone.w_cond)
        assert np.array_equal(fit.w_uncond, alone.w_uncond)
        assert (fit.cond_objective, fit.uncond_objective, fit.num_cells) == (
            alone.cond_objective, alone.uncond_objective, alone.num_cells,
        )
    assert np.array_equal(fits[0].w_cond, fits[-1].w_cond)
    assert not np.array_equal(fits[0].w_cond, fits[3].w_cond)


def test_one_pass_fit_builds_a_pair_context_once_per_pair(rng, monkeypatch):
    codecs, pairs = _mixed_codecs_and_pairs(rng)
    calls = []
    original = codec_module.si_context

    def counting(f_local, mask):
        calls.append(id(f_local))
        return original(f_local, mask)

    monkeypatch.setattr(codec_module, "si_context", counting)
    fit_conditional_decoder(pairs, codecs)
    assert calls == [id(receiver) for _, mask, receiver in pairs if mask.count()]


def test_decoder_fit_holds_nothing_of_a_pair_past_it(rng, monkeypatch):
    c, d, h, w = 8, 4, 32, 32
    cb = Codebook(rng.normal(size=(16, d)))
    params = make_params(np.linalg.qr(rng.normal(size=(c, c)))[0][:d], np.zeros(c), cb=cb)
    pairs = []
    for _ in range(6):
        sender = FeatureMap(rng.normal(size=(c, h, w)))
        receiver = FeatureMap(sender.values + 0.5 * rng.normal(size=(c, h, w)))
        pairs.append((sender, Mask.ones(h, w), receiver))
    design_rows = h * w * (d + c + 1) * 8
    peak_6 = _traced_peak(lambda: fit_conditional_decoder(pairs, [(params, cb)]))
    peak_2 = _traced_peak(lambda: fit_conditional_decoder(pairs[:2], [(params, cb)]))
    assert peak_6 - peak_2 < design_rows
    # The peak stays flat even when each pair outlives its successor's start,
    # so also read what is traced as each pair's quantization begins: under
    # one float64 value per cell more than at the first pair.
    held = []
    quantize = codec_module.quantize_map

    def tracing(latent, codebook):
        held.append(tracemalloc.get_traced_memory()[0])
        return quantize(latent, codebook)

    monkeypatch.setattr(codec_module, "quantize_map", tracing)
    _traced_peak(lambda: fit_conditional_decoder(pairs, [(params, cb)]))
    assert len(held) == len(pairs)
    assert max(held) - held[0] < h * w * 8


def test_decoder_fit_holds_one_codecs_rows_at_a_time(rng):
    # Each codec frees its dequantized latents and design rows before the
    # next codec builds its own, so four codecs peak less than one codec's
    # design rows above one.
    c, d, h, w = 8, 4, 32, 32
    cb = Codebook(rng.normal(size=(16, d)))
    params = make_params(np.linalg.qr(rng.normal(size=(c, c)))[0][:d], np.zeros(c), cb=cb)
    pairs = []
    for _ in range(2):
        sender = FeatureMap(rng.normal(size=(c, h, w)))
        receiver = FeatureMap(sender.values + 0.5 * rng.normal(size=(c, h, w)))
        pairs.append((sender, Mask.ones(h, w), receiver))
    design_rows = h * w * (d + c + 1) * 8
    peak_1 = _traced_peak(lambda: fit_conditional_decoder(pairs, [(params, cb)]))
    peak_4 = _traced_peak(lambda: fit_conditional_decoder(pairs, [(params, cb)] * 4))
    assert peak_4 - peak_1 < design_rows


def test_fit_rejects_an_empty_codec_list(rng):
    _, pairs = _mixed_codecs_and_pairs(rng)
    with pytest.raises(ConfigError, match="no codec"):
        fit_conditional_decoder(pairs, [])


def test_conditional_beats_unconditional_on_held_out_scene(small_cfg, small_fitted):
    from dsc_codec import generate_scene, observe
    from dsc_codec.pruning import mask_from_scores, score_map
    from dsc_codec.simulate import scene_config

    params, cb = small_fitted.params, small_fitted.codebook
    wins = 0
    for s in range(5):
        cfg_s = scene_config(small_cfg, s, stream="eval")
        scene = generate_scene(cfg_s, 0)
        f_sender = observe(scene, 1, cfg_s)
        f_local = observe(scene, 0, cfg_s)
        mask = mask_from_scores(score_map(f_sender), 0.0)
        pruned = FeatureMap(f_sender.values * mask.bits[np.newaxis])
        msg = encode_message(pruned, mask, params, cb)
        cond = mse(decode_message(msg, params, cb, f_local=f_local), pruned)
        uncond = mse(decode_message(msg, params, cb), pruned)
        wins += cond < uncond
    assert wins >= 4


def test_per_cell_reconstruction_error_is_finite_and_bounded(small_cfg, small_fitted, rng):
    # Lossy but bounded: every per-cell error is finite, and no cell error
    # exceeds the decoder's operator norm times the worst input gap plus the
    # fit bias (a loose but fully computable envelope).
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    local = FeatureMap(rng.normal(size=f.shape))
    mask = Mask.ones(f.height, f.width)
    msg = encode_message(f, mask, params, cb)
    recon = decode_message(msg, params, cb, f_local=local)
    per_cell = np.linalg.norm(
        recon.values.astype(np.float64) - f.values.astype(np.float64), axis=0
    )
    assert np.isfinite(per_cell).all()
    op_norm = np.linalg.norm(params.w_cond, 2)
    cells = f.cell_vectors()
    latents = project_cells(cells, params)
    from dsc_codec.quantizer import dequantize

    quant_gap = np.linalg.norm(latents - dequantize(quantize_map(latents, cb), cb), axis=1)
    ctx_norm = np.linalg.norm(si_context(local, mask), axis=1)
    input_mag = np.sqrt(
        np.linalg.norm(latents, axis=1) ** 2 + ctx_norm**2 + 1.0
    )
    envelope = op_norm * (quant_gap.max() + input_mag.max()) + np.abs(cells).max()
    assert float(per_cell.max()) <= envelope
    print(f"max per-cell error {per_cell.max():.4f} within envelope {envelope:.4f}")


def test_codec_transparency_with_fine_codebook(rng, monkeypatch):
    # D = C identity projection and one codeword per distinct cell make the
    # codec lossless up to float32 rounding and decoder conditioning.
    monkeypatch.setattr(codec_module, "_CONTEXT_RADIUS", 0)
    monkeypatch.setattr(codec_module, "_RIDGE_LAMBDA", 1e-10)
    c, h, w = 3, 8, 8
    f = FeatureMap(rng.normal(size=(c, h, w)))
    cells = f.cell_vectors()
    cb = Codebook(cells)  # every cell is its own codeword
    params = make_params(np.eye(c), np.zeros(c), cb=cb)
    fit = fit_conditional_decoder([(f, Mask.ones(h, w), f)], [(params, cb)])[0]
    params = params.with_decoder_fit(fit)
    msg = encode_message(f, Mask.ones(h, w), params, cb)
    recon = decode_message(msg, params, cb)
    assert mse(recon, f) < 1e-9


# ------------------------------------------------------------------ finetune


def finetune_setup(rng, c=4, d=3, k=8, h=10, w=10):
    cb = Codebook(rng.normal(size=(k, d)))
    proj = np.linalg.qr(rng.normal(size=(c, c)))[0][:d]
    params = make_params(proj, rng.normal(size=c) * 0.1, cb=cb)
    pairs = [
        (FeatureMap(rng.normal(size=(c, h, w))), FeatureMap(rng.normal(size=(c, h, w))))
        for _ in range(2)
    ]
    fit_pairs = [(s, Mask.ones(h, w), r) for s, r in pairs]
    params = params.with_decoder_fit(fit_conditional_decoder(fit_pairs, [(params, cb)])[0])
    return params, cb, pairs


def test_finetune_zero_lr_reports_loss_without_moving_params(rng):
    params, cb, batch = finetune_setup(rng)
    new_params, new_cb, loss = finetune_step(params, cb, batch, lr=0.0, update_codebook=False)
    assert np.isfinite(loss) and loss > 0.0
    assert np.array_equal(new_params.projection, params.projection)
    assert np.array_equal(new_params.w_cond, params.w_cond)
    assert np.array_equal(new_cb.codewords, cb.codewords)


def test_finetune_loss_uses_the_decoder_context(rng):
    # finetune_step's loss at the incoming parameters must use decode's
    # context rows, si_context at every cell of each receiver. A non-square
    # map catches a swapped height and width.
    h, w = 7, 9
    params, cb, batch = finetune_setup(rng, h=h, w=w)
    v = np.concatenate([s.cell_vectors() for s, _ in batch], axis=0)
    z = project_cells(v, params)
    assignments = quantize_map(z, cb)
    codewords = dequantize(assignments, cb)
    ctx = np.concatenate([si_context(r, Mask.ones(h, w)) for _, r in batch], axis=0)
    x = np.concatenate([codewords, ctx, np.ones((len(v), 1))], axis=1)
    resid = x @ params.w_cond - v
    gap = z - codewords
    # Reconstruction weight 1, codebook weight 1, commitment weight beta.
    expected = np.mean(resid * resid) + (
        1.0 + codec_module._COMMITMENT_BETA
    ) * np.sum(gap * gap) / len(v)
    _, _, loss = finetune_step(
        params, cb, batch, lr=0.0, assignments=assignments, update_codebook=False
    )
    assert loss == pytest.approx(expected, rel=1e-12)


def test_finetune_decoder_gradient_matches_finite_differences(rng):
    params, cb, batch = finetune_setup(rng)
    # Evaluate at a random point, not the ridge optimum (where the decoder
    # gradient nearly vanishes and finite differences are pure noise).
    params = dataclasses.replace(
        params, w_cond=params.w_cond + rng.normal(size=params.w_cond.shape)
    )
    v = np.concatenate([s.cell_vectors() for s, _ in batch], axis=0)
    assignments = quantize_map(project_cells(v, params), cb)

    def loss_at(w):
        probe = dataclasses.replace(params, w_cond=w)
        _, _, value = finetune_step(
            probe, cb, batch, lr=0.0, assignments=assignments, update_codebook=False
        )
        return value

    base = params.w_cond
    eps = 1e-5
    lr = 1e-2
    stepped, _, _ = finetune_step(
        params, cb, batch, lr=lr, assignments=assignments, update_codebook=False
    )
    grad = (base - stepped.w_cond) / lr

    rows, cols = base.shape
    checked = 0
    for flat in np.random.default_rng(0).choice(rows * cols, size=25, replace=False):
        i, j = divmod(int(flat), cols)
        plus = np.array(base)
        plus[i, j] += eps
        minus = np.array(base)
        minus[i, j] -= eps
        fd = (loss_at(plus) - loss_at(minus)) / (2 * eps)
        if abs(fd) < 1e-12:
            continue
        assert abs(grad[i, j] - fd) / max(abs(fd), 1e-12) < 1e-4
        checked += 1
    assert checked >= 15


def test_finetune_descends_with_frozen_assignments(rng):
    params, cb, batch = finetune_setup(rng)
    v = np.concatenate([s.cell_vectors() for s, _ in batch], axis=0)
    assignments = quantize_map(project_cells(v, params), cb)
    losses = []
    for _ in range(20):
        params, cb, loss = finetune_step(
            params, cb, batch, lr=1e-3, assignments=assignments, update_codebook=False
        )
        losses.append(loss)
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


def test_finetune_ema_moves_codebook_and_rebinds_hash(rng):
    params, cb, batch = finetune_setup(rng)
    new_params, new_cb, _ = finetune_step(params, cb, batch, lr=1e-3, update_codebook=True)
    assert not np.array_equal(new_cb.codewords, cb.codewords)
    assert new_params.codebook_hash == new_cb.version_hash


def test_finetune_rejects_nonfinite_loss(rng):
    params, cb, batch = finetune_setup(rng)
    huge = dataclasses.replace(params, w_cond=np.full_like(params.w_cond, 1e200))
    with pytest.raises(StepRejectedError):
        finetune_step(huge, cb, batch, lr=1e-3)
    with pytest.raises(ConfigError):
        finetune_step(params, cb, [], lr=1e-3)
    for lr in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr must be finite and >= 0"):
            finetune_step(params, cb, batch, lr=lr)


def test_finetune_rejects_assignments_that_are_not_codeword_indices(rng, monkeypatch):
    # Fractional indices used to be truncated silently, and an index past
    # the codebook raised a DecodeError. Both are the caller's argument
    # error, caught before the projection or any loss product is formed.
    params, cb, batch = finetune_setup(rng)
    m = sum(s.height * s.width for s, _ in batch)
    valid = np.zeros(m, dtype=np.int32)
    valid[-1] = cb.size - 1
    finetune_step(params, cb, batch, lr=0.0, assignments=valid, update_codebook=False)

    def no_projection(*args):
        raise AssertionError("projected before the assignments were checked")

    monkeypatch.setattr(codec_module, "project_cells", no_projection)
    past = valid.copy()
    past[3] = cb.size
    negative = valid.copy()
    negative[0] = -1
    in_range = re.escape(f"[0, {cb.size})")
    cases = [
        (np.full(m, 0.7), "integer"),
        (np.zeros(m, dtype=bool), "integer"),
        (valid.astype(np.float64), "integer"),
        (past, in_range),
        (negative, in_range),
        (np.full(m, 2**40, dtype=np.int64), in_range),
    ]
    for bad, match in cases:
        with pytest.raises(ConfigError, match=match):
            finetune_step(params, cb, batch, lr=0.0, assignments=bad, update_codebook=False)
    for bad in (valid[:-1], valid.reshape(2, -1), np.full(m + 1, 0.7)):
        with pytest.raises(ShapeMismatchError):
            finetune_step(params, cb, batch, lr=0.0, assignments=bad, update_codebook=False)


# ------------------------------------------------------------------ file io


def test_codec_params_file_roundtrip(tmp_path, small_fitted):
    params = small_fitted.params
    path = tmp_path / "codec.dccp"
    save_codec_params(params, path)
    loaded = load_codec_params(path)
    assert np.array_equal(loaded.projection, params.projection)
    assert np.array_equal(loaded.mean, params.mean)
    assert np.array_equal(loaded.w_cond, params.w_cond)
    assert np.array_equal(loaded.w_uncond, params.w_uncond)
    assert loaded.codebook_hash == params.codebook_hash


def test_codec_params_file_roundtrip_at_the_largest_header_values(tmp_path):
    params = CodecParams(np.eye(2, 3), np.zeros(3), 2**64 - 1)
    path = tmp_path / "codec.dccp"
    save_codec_params(params, path)
    loaded = load_codec_params(path)
    assert loaded.codebook_hash == 2**64 - 1
    assert np.array_equal(loaded.projection, params.projection)
    with pytest.raises(ConfigError, match="16-bit"):
        CodecParams(np.zeros((1, 0x10000)), np.zeros(0x10000), 0)


@pytest.mark.parametrize("version", [2, 3])
def test_codec_params_file_of_other_version_is_rejected(tmp_path, small_fitted, version):
    path = tmp_path / "codec.dccp"
    save_codec_params(small_fitted.params, path)
    data = bytearray(path.read_bytes())
    assert data[4] == 4
    data[4] = version
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"version {version}"):
        load_codec_params(path)


@pytest.mark.parametrize("bit", [0x04, 0x80])
def test_codec_params_file_with_undefined_flag_bits_is_rejected(tmp_path, small_fitted, bit):
    path = tmp_path / "codec.dccp"
    save_codec_params(small_fitted.params, path)
    data = bytearray(path.read_bytes())
    # The flags byte follows magic and version; both weight blocks are saved.
    assert data[5] == 3
    data[5] |= bit
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="flag"):
        load_codec_params(path)


@pytest.mark.parametrize(
    "d, nan_at, match",
    [
        (0, None, "projection must have shape"),
        (2, 4, "projection contains non-finite values"),
    ],
)
def test_codec_params_file_with_invalid_parameters_raises_format_error(tmp_path, d, nan_at, match):
    c = 3
    path = tmp_path / "codec.dccp"
    body = np.zeros(d * c + c)
    if nan_at is not None:
        body[nan_at] = np.nan
    header = _DCCP_HEADER.pack(b"DCCP", 4, 0, c, d, 0)
    path.write_bytes(header + body.astype("<f8").tobytes())
    with pytest.raises(FormatError, match=match) as info:
        load_codec_params(path)
    assert isinstance(info.value.__cause__, ConfigError)


@pytest.mark.parametrize("cond, uncond", [(False, False), (True, False), (False, True), (True, True)])
def test_codec_params_file_layout_matches_an_independent_packer(tmp_path, cond, uncond):
    # Hand-built D=2, C=3 parameters, so no fit runs and the bytes depend on
    # no BLAS kernel. After the header come f64 LE row-major blocks: the
    # projection (D x C), the mean (C), then w_cond ((D+C+1) x C = 6 x 3) and
    # w_uncond ((D+1) x C = 3 x 3), each only if its flag bit is set.
    values = np.arange(1.0, 37.0) / 8
    projection, mean = values[:6].reshape(2, 3), values[6:9]
    w_cond = values[9:27].reshape(6, 3) if cond else None
    w_uncond = -values[27:36].reshape(3, 3) if uncond else None
    params = CodecParams(projection, mean, 0x0123456789ABCDEF, w_cond, w_uncond)
    blocks = [projection, mean] + [w for w in (w_cond, w_uncond) if w is not None]
    body = np.concatenate([block.ravel() for block in blocks])
    flags = cond | 2 * uncond
    expected = _DCCP_HEADER.pack(b"DCCP", 4, flags, 3, 2, 0x0123456789ABCDEF)
    expected += struct.pack(f"<{len(body)}d", *body)
    path = tmp_path / "codec.dccp"
    save_codec_params(params, path)
    assert path.read_bytes() == expected
    loaded = load_codec_params(path)
    assert loaded.codebook_hash == 0x0123456789ABCDEF
    for field in ("projection", "mean", "w_cond", "w_uncond"):
        want, got = getattr(params, field), getattr(loaded, field)
        assert got is None if want is None else np.array_equal(got, want)


def test_codec_params_file_truncation(tmp_path, small_fitted):
    path = tmp_path / "codec.dccp"
    save_codec_params(small_fitted.params, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_codec_params(path)
