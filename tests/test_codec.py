import dataclasses
import struct

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
    FrequencyTable,
    HeaderMismatchError,
    InsufficientDataError,
    ShapeMismatchError,
    Mask,
    MessageParseError,
    StepRejectedError,
    decode_message,
    encode_message,
    finetune_step,
    fit_conditional_decoder,
    fit_encoder_projection,
    load_codec_params,
    mse,
    rans_decode,
    save_codec_params,
    si_context,
)
import dsc_codec.codec as codec_module
from dsc_codec.codec import _GATHER_MAX_SHARE, _window_sums, project_cells
from dsc_codec.features import apply_mask
from dsc_codec.pruning import mask_from_scores, score_map
from dsc_codec.quantizer import dequantize, quantize_map
from dsc_codec.simulate import generate_scene, observe
from dsc_codec.wire import MAX_MESSAGE_PRECISION, Message

RT2 = 1.0 / np.sqrt(2.0)


def make_params(projection, mean, cb=None, **kw):
    return CodecParams(
        projection=projection,
        mean=mean,
        codebook_hash=cb.version_hash if cb is not None else 0,
        **kw,
    )


@pytest.mark.parametrize("field", ["ridge_lambda", "recon_weight", "commitment_beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_codec_params_rejects_negative_or_non_finite_hyperparameters(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0"):
        make_params(np.eye(3), np.zeros(3), **{field: value})
    assert getattr(make_params(np.eye(3), np.zeros(3), **{field: 0.0}), field) == 0.0


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


def test_pca_mean_and_covariance_match_pooled_reference_bits(rng, monkeypatch):
    # Magnitudes spread over 2^-20..2^10, so float64 sums of the float32
    # cells round and the summation order shows in the bits.
    shapes = ((8, 32, 40), (8, 2, 3), (8, 48, 16))
    maps = [FeatureMap(rng.normal(size=s) * np.exp2(rng.uniform(-20, 10, s))) for s in shapes]
    x = np.concatenate([f.cell_vectors() for f in maps], axis=0)
    centered = x - x.mean(axis=0)
    covs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: covs.append(a.copy()) or eigh(a))
    _, mean = fit_encoder_projection(maps, 3)
    assert np.array_equal(mean, x.mean(axis=0))
    assert np.array_equal(covs[0], centered.T @ centered / len(x))


def test_pca_insufficient_samples():
    f = FeatureMap(np.zeros((2, 1, 3), dtype=np.float32))
    with pytest.raises(InsufficientDataError):
        fit_encoder_projection([f], 4)


# ---------------------------------------------------------------- si context


def test_si_context_constant_map_interior(rng):
    proj, mean = np.eye(3), np.zeros(3)
    params = make_params(proj, mean)
    f = FeatureMap(np.full((3, 8, 8), 2.0, dtype=np.float32))
    ctx = si_context(f, params, Mask.ones(8, 8)).reshape(8, 8, 3)
    interior = ctx[1:-1, 1:-1]
    assert np.allclose(interior, interior[0, 0])
    # With zero padding the border box-means genuinely differ.
    assert not np.allclose(ctx[0, 0], interior[0, 0])


def test_si_context_zero_map_gives_zero_context(rng):
    # The context is the receiver's own channel-space box mean: the encoder's
    # projection and mean take no part in it.
    params = make_params(rng.normal(size=(4, 3)), rng.normal(size=3))
    ctx = si_context(FeatureMap.zeros(3, 6, 6), params, Mask.ones(6, 6))
    assert ctx.shape == (36, 3)
    assert np.array_equal(ctx, np.zeros((36, 3)))


def test_si_context_delta_support_is_box_neighborhood():
    params = make_params(np.eye(2), np.zeros(2))
    values = np.zeros((2, 9, 9), dtype=np.float32)
    values[:, 4, 4] = 1.0
    ctx = si_context(FeatureMap(values), params, Mask.ones(9, 9)).reshape(9, 9, 2)
    nonzero = np.any(ctx != 0.0, axis=2)
    expected = np.zeros((9, 9), dtype=bool)
    expected[3:6, 3:6] = True
    assert np.array_equal(nonzero, expected)


def _reference_context(f, params, mask):
    # The channel-space definition: zero-padded uniform_filter box mean of the
    # whole map, keeping the masked rows.
    values = f.values.astype(np.float64)
    r = params.context_radius
    if r > 0:
        values = uniform_filter(values, size=(1, 2 * r + 1, 2 * r + 1), mode="constant", cval=0.0)
    return values.reshape(f.channels, -1).T[mask.bits.ravel()]


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_si_context_matches_channel_space_box_mean(radius):
    rng = np.random.default_rng(100 + radius)
    c, h, w = 5, 11, 13
    params = make_params(rng.normal(size=(4, c)), rng.normal(size=c), context_radius=radius)
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
        ctx = si_context(f, params, mask)
        assert ctx.dtype == np.float64
        assert ctx.shape == (mask.count(), c)
        np.testing.assert_allclose(ctx, _reference_context(f, params, mask), rtol=1e-12, atol=0.0)


def test_si_context_rejects_mask_of_other_shape():
    params = make_params(np.eye(2), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        si_context(FeatureMap.zeros(2, 4, 4), params, Mask.ones(4, 5))


@pytest.mark.parametrize("radius", [1, 2])
def test_window_sums_gather_and_slices_are_bit_identical(radius, monkeypatch):
    # The share of kept cells picks the strategy: just below the switch point
    # the sums are row gathers, at or above it whole-map slices. On the same
    # inputs each strategy, forced either way, must give the same bits.
    rng = np.random.default_rng(7 + radius)
    h, w, x = 16, 20, 3
    grid = rng.normal(size=(h + 2 * radius, w + 2 * radius, x))
    order = rng.permutation(h * w)
    switch = int(np.ceil(_GATHER_MAX_SHARE * h * w))
    below = np.zeros(h * w, dtype=bool)
    below[order[: switch - 1]] = True
    above = below.copy()
    above[order[switch - 1 : switch + 1]] = True
    below, above = below.reshape(h, w), above.reshape(h, w)
    assert np.count_nonzero(below) < _GATHER_MAX_SHARE * h * w <= np.count_nonzero(above)

    # A float32 grid (as si_context builds) must sum in float64 either way.
    for grid in (grid, grid.astype(np.float32)):
        everywhere = _window_sums(grid, np.ones((h, w), dtype=bool), radius)
        for bits in (below, above):
            chosen = _window_sums(grid, bits, radius)
            monkeypatch.setattr(codec_module, "_GATHER_MAX_SHARE", 2.0)
            gathered = _window_sums(grid, bits, radius)
            monkeypatch.setattr(codec_module, "_GATHER_MAX_SHARE", 0.0)
            sliced = _window_sums(grid, bits, radius)
            monkeypatch.undo()
            assert chosen.dtype == np.float64
            assert np.array_equal(gathered, sliced)
            assert np.array_equal(chosen, sliced)
            assert np.array_equal(chosen, everywhere[bits.ravel()])


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


def test_decode_is_deterministic(small_cfg, small_fitted, rng):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    local = FeatureMap(rng.normal(size=f.shape))
    msg = encode_message(f, Mask.ones(f.height, f.width), params, cb)
    a = decode_message(msg, params, cb, f_local=local)
    b = decode_message(msg, params, cb, f_local=local)
    assert np.array_equal(a.values, b.values)


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

# Fixed header: magic, version, flags, C, H, W, D, K, p, codebook hash.
_HEADER = struct.Struct("<4sBBHHHHHBQ")
_HEADER_FIELD_BITS = (32, 8, 8, 16, 16, 16, 16, 16, 8, 64)


@pytest.fixture(scope="module")
def coded_link(small_cfg, small_fitted):
    """A real small-scene message at tau=0.5 (a mixed mask) and its receiver map."""
    scene = generate_scene(small_cfg, 0)
    sender, local = observe(scene, 1, small_cfg), observe(scene, 0, small_cfg)
    mask = mask_from_scores(score_map(sender), 0.5)
    pruned = FeatureMap(sender.values * mask.bits[np.newaxis])
    msg = encode_message(pruned, mask, small_fitted.params, small_fitted.codebook)
    return msg.to_bytes(), local


def _receive(data, f_local, fitted, conditional):
    msg = Message.from_bytes(data)
    return decode_message(
        msg, fitted.params, fitted.codebook, f_local=f_local if conditional else None
    )


def _corrupt(draw, data: bytes) -> bytes:
    kind = draw(st.sampled_from(["flip", "truncate", "header"]))
    if kind == "flip":
        out = bytearray(data)
        for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=3)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    fields = list(_HEADER.unpack_from(data))
    i = draw(st.integers(1, len(fields) - 1))
    fields[i] = draw(st.integers(0, (1 << _HEADER_FIELD_BITS[i]) - 1))
    return _HEADER.pack(*fields) + data[_HEADER.size :]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_corrupted_message_decodes_or_raises_decode_error(coded_link, small_fitted, data):
    # The receiver contract: whatever bytes arrive, parse + decode either
    # returns a reconstruction or raises a DecodeError subclass.
    clean, local = coded_link
    corrupted = _corrupt(data.draw, clean)
    conditional = data.draw(st.booleans())
    try:
        recon = _receive(corrupted, local, small_fitted, conditional)
    except DecodeError:
        return
    assert isinstance(recon, FeatureMap)


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
    # is the whole 2^p; the wire's u16 table carries it up to p = 15.
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(np.ones((small_cfg.channels, small_cfg.height, small_cfg.width)))
    mask = Mask.ones(f.height, f.width)
    for p in (8, 12, MAX_MESSAGE_PRECISION):
        msg = encode_message(f, mask, params, cb, precision=p)
        assert np.count_nonzero(msg.freqs) == 1 and msg.freqs.max() == 1 << p
        parsed = Message.from_bytes(msg.to_bytes())
        assert parsed.to_bytes() == msg.to_bytes()
        a = decode_message(parsed, params, cb)
        b = decode_message(msg, params, cb)
        assert np.array_equal(a.values, b.values)
    for p in (7, MAX_MESSAGE_PRECISION + 1):
        with pytest.raises(ConfigError):
            encode_message(f, mask, params, cb, precision=p)


def test_encode_rejects_mismatched_codebook(small_cfg, small_fitted, rng):
    params, cb = small_fitted.params, small_fitted.codebook
    f = FeatureMap(rng.normal(size=(small_cfg.channels, small_cfg.height, small_cfg.width)))
    other = Codebook(rng.normal(size=(cb.size, cb.dim)))
    with pytest.raises(CodebookMismatchError):
        encode_message(f, Mask.ones(f.height, f.width), params, other)


def test_encode_rate_accounting_at_ten_percent_occupancy(rng):
    # 128x128 map, ~10% occupancy, K = 64: fixed overhead is exactly
    # header 25 + mask(4 + 2048) + N 4 + table 128 + payload-len 4 + state 4,
    # and the rANS payload tracks the realized index entropy.
    c, h, w = 4, 128, 128
    cb = Codebook(rng.normal(size=(64, c)))
    params = make_params(np.eye(c), np.zeros(c), cb=cb)
    f = FeatureMap(rng.normal(size=(c, h, w)))
    bits = rng.random((h, w)) < 0.10
    mask = Mask(bits)
    msg = encode_message(FeatureMap(f.values * bits[np.newaxis]), mask, params, cb)
    total = len(msg.to_bytes())
    overhead = 25 + 4 + 2048 + 4 + 2 * 64 + 4 + 4
    assert total == overhead + len(msg.payload)

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


def identity_codec(c, cb, **kw):
    return make_params(np.eye(c), np.zeros(c), cb=cb, **kw)


def test_perfect_side_information_drives_training_mse_to_zero(rng):
    # Receiver equals sender and the context radius is zero, so the context
    # carries the exact target; with a vanishing ridge the fit is exact.
    c, h, w = 4, 16, 16
    sender = FeatureMap(rng.normal(size=(c, h, w)))
    cb = Codebook(rng.normal(size=(8, c)))
    params = make_params(np.eye(c), np.zeros(c), cb=cb, context_radius=0, ridge_lambda=1e-10)
    fit = fit_conditional_decoder([(sender, Mask.ones(h, w), sender)], params, cb)
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
    params = identity_codec(c, cb, ridge_lambda=1e-3)
    pairs = [synthetic_pair(rng, c=c, h=24, w=24) for _ in range(16)]
    fit = fit_conditional_decoder(pairs, params, cb)
    d = params.embed_dim
    ctx_block = fit.w_cond[d : d + c]
    main_block = fit.w_cond[:d]
    assert np.linalg.norm(ctx_block) < 0.1 * np.linalg.norm(main_block)
    assert fit.cond_objective <= fit.uncond_objective
    assert fit.cond_objective == pytest.approx(fit.uncond_objective, rel=0.02)


def test_nested_model_dominance_holds_for_arbitrary_data(rng):
    c = 3
    for trial in range(25):
        cb = Codebook(rng.normal(size=(4, c)))
        params = identity_codec(c, cb)
        pairs = [synthetic_pair(rng, c=c, h=6, w=6)]
        params = dataclasses.replace(params, ridge_lambda=10.0 ** rng.integers(-8, 2))
        fit = fit_conditional_decoder(pairs, params, cb)
        assert fit.cond_objective <= fit.uncond_objective


def _stacked_ridge_reference(pairs, params, cb, lam):
    # The stacked-rows definition of the fit: one design matrix over every
    # unpruned cell of every pair, each decoder solved from it directly.
    rows, targets = [], []
    for sender, mask, receiver in pairs:
        y = sender.cell_vectors()[mask.bits.ravel()]
        deq = dequantize(quantize_map(project_cells(y, params), cb), cb)
        ctx = si_context(receiver, params, mask)
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
def test_summed_normal_equations_match_stacked_rows(seed):
    # D < C, so the C-dim context block is wider than the latent block; the
    # receivers are noisy copies of the senders, so the context matters.
    rng = np.random.default_rng(seed)
    c, d, h, w = 6, 3, 9, 11
    cb = Codebook(rng.normal(size=(8, d)))
    proj = np.linalg.qr(rng.normal(size=(c, c)))[0][:d]
    params = make_params(proj, rng.normal(size=c) * 0.1, cb=cb, context_radius=int(seed % 2))
    pairs = []
    for share in (1.0, 0.5, 0.0, 0.2):
        sender = FeatureMap(rng.normal(size=(c, h, w)))
        receiver = FeatureMap(sender.values + 0.5 * rng.normal(size=(c, h, w)))
        mask = Mask(rng.random((h, w)) < share)
        pairs.append((apply_mask(sender, mask), mask, receiver))
    lam = 10.0 ** rng.uniform(-4, 0)
    fit = fit_conditional_decoder(pairs, dataclasses.replace(params, ridge_lambda=lam), cb)
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
        fit_conditional_decoder([(sender, Mask.ones(2, 2), sender)], params, cb)


def test_fit_rejects_pairs_whose_channels_differ_from_the_codec(rng):
    cb = Codebook(rng.normal(size=(4, 4)))
    params = identity_codec(4, cb)
    sender = FeatureMap(rng.normal(size=(3, 4, 4)))
    with pytest.raises(ShapeMismatchError, match="feature has 3 channels, codec expects 4"):
        fit_conditional_decoder([(sender, Mask.ones(4, 4), sender)], params, cb)


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
    ctx_norm = np.linalg.norm(si_context(local, params, mask), axis=1)
    input_mag = np.sqrt(
        np.linalg.norm(latents, axis=1) ** 2 + ctx_norm**2 + 1.0
    )
    envelope = op_norm * (quant_gap.max() + input_mag.max()) + np.abs(cells).max()
    assert float(per_cell.max()) <= envelope
    print(f"max per-cell error {per_cell.max():.4f} within envelope {envelope:.4f}")


def test_codec_transparency_with_fine_codebook(rng):
    # D = C identity projection and one codeword per distinct cell make the
    # codec lossless up to float32 rounding and decoder conditioning.
    c, h, w = 3, 8, 8
    f = FeatureMap(rng.normal(size=(c, h, w)))
    cells = f.cell_vectors()
    cb = Codebook(cells)  # every cell is its own codeword
    params = make_params(np.eye(c), np.zeros(c), cb=cb, context_radius=0, ridge_lambda=1e-10)
    fit = fit_conditional_decoder([(f, Mask.ones(h, w), f)], params, cb)
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
    params = params.with_decoder_fit(fit_conditional_decoder(fit_pairs, params, cb))
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
    ctx = np.concatenate([si_context(r, params, Mask.ones(h, w)) for _, r in batch], axis=0)
    x = np.concatenate([codewords, ctx, np.ones((len(v), 1))], axis=1)
    resid = x @ params.w_cond - v
    gap = z - codewords
    expected = params.recon_weight * np.mean(resid * resid) + (
        1.0 + params.commitment_beta
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
    assert loaded.ridge_lambda == params.ridge_lambda
    assert loaded.context_radius == params.context_radius


def test_codec_params_file_roundtrip_at_the_largest_header_values(tmp_path):
    params = CodecParams(np.eye(2, 3), np.zeros(3), 2**64 - 1, context_radius=255)
    path = tmp_path / "codec.dccp"
    save_codec_params(params, path)
    loaded = load_codec_params(path)
    assert (loaded.context_radius, loaded.codebook_hash) == (255, 2**64 - 1)
    assert np.array_equal(loaded.projection, params.projection)
    with pytest.raises(ConfigError, match="16-bit"):
        CodecParams(np.zeros((1, 0x10000)), np.zeros(0x10000), 0)


def test_codec_params_file_of_other_version_is_rejected(tmp_path, small_fitted):
    from dsc_codec import FormatError

    path = tmp_path / "codec.dccp"
    save_codec_params(small_fitted.params, path)
    data = bytearray(path.read_bytes())
    assert data[4] == 2
    data[4] = 1
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="version 1"):
        load_codec_params(path)


def test_codec_params_file_with_nan_lambda_is_rejected(tmp_path, small_fitted):
    path = tmp_path / "codec.dccp"
    save_codec_params(small_fitted.params, path)
    data = bytearray(path.read_bytes())
    # ridge_lambda is the first f64 of the header, after magic, version,
    # flags, C, D and the context radius.
    lam_offset = struct.calcsize("<4sBBHHB")
    assert struct.unpack_from("<d", data, lam_offset)[0] == small_fitted.params.ridge_lambda
    struct.pack_into("<d", data, lam_offset, float("nan"))
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match="ridge_lambda must be finite"):
        load_codec_params(path)


def test_codec_params_file_truncation(tmp_path, small_fitted):
    from dsc_codec import FormatError

    path = tmp_path / "codec.dccp"
    save_codec_params(small_fitted.params, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_codec_params(path)
