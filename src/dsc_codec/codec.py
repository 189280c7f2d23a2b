"""The conditional codec: linear encoder, discrete bottleneck, context decoder.

Sender side: per-cell channel vectors are mean-centered, projected to a
D-dimensional latent (PCA fit offline, from a mean and covariance summed map
by map, so the fit holds one map's float64 cells on top of its inputs),
vector-quantized against a shared codebook, and rANS-coded into a
self-describing message. Encoding never sees any receiver-side data; a
message is a pure function of the pruned feature, the mask, the codec
parameters and the codebook, and so is its table precision.

Receiver side: the local feature is turned into a per-cell context vector
(the channel-space box mean of the receiver's own feature over a small
neighborhood, computed only at the coded cells; it uses none of the encoder's
projection). Ridge-fit linear decoders map each coded cell's row back to
channel space. _row describes that row, [dequantized latent | context | 1],
and _DECODERS the two decoders that read it: the conditional one reads all
of it, and the unconditional ablation baseline (decode_message without a
local feature) the nested [latent | 1], so its training objective can never
beat the conditional one. fit_conditional_decoder fits the decoders of
several codecs in one pass over the training pairs, building each pair's
context once, freeing each codec's rows before the next codec builds its
own and the pair's targets and context before the next pair.

Decoding has two stages. decode_latents checks the header against the codec
and codebook, rANS-decodes the symbols with the message's own table and
dequantizes them band by band into its result, so besides the result it
holds the int32 symbols and one band's transients; it does not depend on
the decoder or the receiver.
reconstruct maps those latents (and context rows, for the conditional
decoder) to channel space and scatters them onto the coded cells. It builds
and multiplies the decoder rows in cache-sized bands, which give the whole
product's bits (reconstruct says on which BLAS kernels, and why).
decode_message, the one bytes-to-feature entry point, is their composition;
a receiver that feeds one message to several decoders runs the first stage
once.

An optional gradient fine-tune step updates the projection and decoder with
the quantizer treated as identity in the backward pass, and refreshes the
codebook by an exponential moving average over assigned latents.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    CodebookMismatchError,
    ConfigError,
    FormatError,
    HeaderMismatchError,
    InsufficientDataError,
    ShapeMismatchError,
    StepRejectedError,
    frozen_array,
    read_container,
    require_int,
    require_nonnegative,
    write_container,
)
from .features import FeatureMap, Mask, _frozen_map, require_same_shape, require_spatial_match
from .quantizer import Codebook, dequantize, quantize_map
from .rans import RANS_L, build_freq_table, rans_decode, rans_encode
from .wire import MAX_MESSAGE_PRECISION, Message

DEFAULT_PRECISION = 12

_DCCP_MAGIC = b"DCCP"
_DCCP_VERSION = 4
_DCCP_HEADER = struct.Struct("<4sBBHHQ")
# The decoders in DCCP block order: (CodecParams field, DCCP flag bit, the _row
# blocks it reads, one weight row per column). The first, conditional, reads
# the whole row; the second, the unconditional ablation, nests in it.
_DECODERS = (
    ("w_cond", 1, ("latents", "context", "intercept")),
    ("w_uncond", 2, ("latents", "intercept")),
)
# si_context's box radius and both decoders' ridge penalty; the DCCP version pins them.
_CONTEXT_RADIUS = 1
_RIDGE_LAMBDA = 1e-3
# reconstruct's cells per band, whose decoder rows and products stay in cache.
# On a dense 128x128x32 map (2-core Xeon, best of 5) 256 or 512 cells took
# 2.5 ms, 1024 to 4096 cells 3.3 to 3.8 ms, and the whole map in one band 4.5.
_BAND_CELLS = 512
# decode_latents' symbols per dequantize call: one band's int64 indices are
# all it holds besides the int32 symbols and its result.
_LATENT_BAND = 1 << 14
# Weight of the old codeword in finetune_step's moving-average refresh.
_EMA_DECAY = 0.99
# Weight of finetune_step's commitment term, which pulls latents toward their codewords.
_COMMITMENT_BETA = 0.25


@dataclass(frozen=True, eq=False)
class CodecParams:
    """All learnable state of one codec except the codebook itself.

    projection/mean define the encoder only; w_cond and w_uncond are the
    decoders of _DECODERS, with one row per column of _row that each reads.
    The codebook is referenced by version hash so a mismatch between encoder
    and decoder is detected instead of silently corrupting. C, D and the
    codebook hash are checked against the DCCP header fields that store
    them, so a constructed instance always saves.
    """

    projection: np.ndarray
    mean: np.ndarray
    codebook_hash: int
    w_cond: np.ndarray | None = None
    w_uncond: np.ndarray | None = None

    def __post_init__(self) -> None:
        proj = frozen_array("projection", self.projection, np.float64, (None, None))
        d, c = proj.shape
        if max(d, c) > 0xFFFF:
            raise ConfigError("projection dimensions must fit unsigned 16-bit fields")
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "mean", frozen_array("mean", self.mean, np.float64, (c,)))
        require_int("codebook_hash", self.codebook_hash, 0, 2**64 - 1)
        for field, _, blocks in _DECODERS:
            if (w := getattr(self, field)) is not None:
                shape = (len(_row_columns(d, c, blocks)), c)
                object.__setattr__(self, field, frozen_array(field, w, np.float64, shape))

    @property
    def embed_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def channels(self) -> int:
        return self.projection.shape[1]

    def with_decoder_fit(self, fit: "DecoderFit") -> "CodecParams":
        return replace(self, w_cond=fit.w_cond, w_uncond=fit.w_uncond)


def fit_encoder_projection(
    training_features: Sequence[FeatureMap], embed_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """PCA over pooled per-cell channel vectors -> (D x C matrix, C mean).

    The statistics are accumulated map by map in two passes, so the fit holds
    one map's float64 cells at a time. The mean is the float64 sum of each
    map's cells over the pixels, added in map order and divided by the cell
    count; the covariance is each map's centred C x C product, added in map
    order and divided by the same count. That order fixes their bits.
    Principal directions are ordered by decreasing variance with a fixed sign
    convention (the largest-magnitude component of each direction is made
    positive). Directions beyond the data rank, and rows beyond C when D > C,
    are zero-padded.
    """
    require_int("embed_dim", embed_dim, 1)
    if not training_features:
        raise InsufficientDataError("no training features given")
    c = training_features[0].channels
    if any(f.channels != c for f in training_features):
        raise ShapeMismatchError("training features disagree on channel count")
    n = sum(f.height * f.width for f in training_features)
    if n < embed_dim:
        raise InsufficientDataError(
            f"need at least {embed_dim} pooled cells to fit the projection, got {n}"
        )
    total = np.zeros(c)
    for f in training_features:
        total += f.values.reshape(c, -1).sum(axis=1, dtype=np.float64)
    mean = total / n
    cov = np.zeros((c, c))
    for f in training_features:
        x = f.values.reshape(c, -1) - mean[:, None]
        cov += x @ x.T
        del x
    cov /= n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    tol = max(float(eigvals[0]), 0.0) * 1e-10
    proj = np.zeros((embed_dim, c), dtype=np.float64)
    for row in range(min(embed_dim, c)):
        if eigvals[row] <= tol:
            break
        direction = eigvecs[:, row]
        peak = int(np.argmax(np.abs(direction)))
        if direction[peak] < 0:
            direction = -direction
        proj[row] = direction
    return proj, mean


def project_cells(
    cells: np.ndarray, params: CodecParams, *, overwrite: bool = False
) -> np.ndarray:
    """(M, C) channel vectors -> (M, D) latents through the encoder projection.

    With overwrite=True a float64 cells block is centred where it lies, so a
    caller that owns a fresh block needs no second one; the float
    operations, and so the latents, are the same.
    """
    if overwrite:
        cells -= params.mean
    else:
        cells = cells - params.mean
    return cells @ params.projection.T


def _kept_cells(f: FeatureMap, flat: np.ndarray) -> np.ndarray:
    """f.cell_vectors()[flat] without the float64 copy of every cell.

    The kept columns of the float32 map are gathered straight into a
    C-order (flat.sum(), C) float64 block, the layout the boolean gather
    gives, so the projection that follows makes the same float operations.
    """
    cols = f.values.reshape(f.channels, -1)
    if not flat.all():
        cols = cols[:, flat]
    return cols.T.astype(np.float64, order="C")


# Below this share of kept cells the window sums gather rows at the kept
# cells; at or above it they add whole-map shifted slices, whose cost does not
# depend on the share. On a 128x128x32 float32 grid the two cost about the
# same between 25% and 35%.
_GATHER_MAX_SHARE = 0.25


def _add_in_order(parts) -> np.ndarray:
    """Left-to-right float64 sum of same-shape arrays into a fresh array."""
    parts = iter(parts)
    acc = np.array(next(parts), dtype=np.float64)
    for part in parts:
        acc += part
    return acc


def _require_channels(f: FeatureMap, params: CodecParams) -> None:
    if f.channels != params.channels:
        raise ShapeMismatchError(
            f"feature has {f.channels} channels, codec expects {params.channels}"
        )


def si_context(f_local: FeatureMap, params: CodecParams, mask: Mask) -> np.ndarray:
    """Context rows at the kept cells of mask: the local (2r+1)^2 box mean.

    Returns (mask.count(), C) float64 rows in row-major cell order, the
    channel-space mean of f_local over the window around each kept cell.
    Only cells inside the window of a kept cell are read. Padding is zero
    and the divisor fixed, so border cells (whose windows hang over the
    padding) genuinely differ from interior ones. r = _CONTEXT_RADIUS is fixed:
    r=0 decodes worse at every pose noise >= 1, and r=2 and r=3 worse overall.
    """
    _require_channels(f_local, params)
    require_spatial_match(f_local, mask)
    c, h, w = f_local.shape
    r = _CONTEXT_RADIUS
    k = 2 * r + 1
    hp, wp = h + 2 * r, w + 2 * r
    bits = mask.bits
    # float32 holds the feature values exactly; the window sums are float64.
    # Each window row is summed left to right and the row sums top to
    # bottom, in both branches, so the two make the same adds in the same
    # order and give the same bits.
    grid = np.zeros((hp, wp, c), dtype=np.float32)
    if np.count_nonzero(bits) >= _GATHER_MAX_SHARE * bits.size:
        # Whole-map shifted slices: one slice copy of the map, whatever the mask.
        grid[r : r + h, r : r + w] = f_local.values.transpose(1, 2, 0)
        line_sums = _add_in_order(grid[:, dx : dx + w] for dx in range(k))
        sums = _add_in_order(line_sums[dy : dy + h] for dy in range(k))
        ctx = sums.reshape(h * w, c) if bits.all() else sums[bits]
    else:
        # Row gathers at the kept cells: only the cells near one are copied.
        near = np.zeros((hp, wp), dtype=bool)
        for dy in range(k):
            for dx in range(k):
                near[dy : dy + h, dx : dx + w] |= bits
        cells = np.flatnonzero(near[r : r + h, r : r + w])
        ys, xs = np.divmod(cells, w)
        rows = grid.reshape(hp * wp, c)
        rows[(ys + r) * wp + (xs + r)] = np.take(f_local.values.reshape(c, -1), cells, axis=1).T
        ys, xs = np.nonzero(bits)
        starts = ys * wp + xs
        ctx = _add_in_order(
            _add_in_order(np.take(rows, starts + (dy * wp + dx), axis=0) for dx in range(k))
            for dy in range(k)
        )
    ctx /= k * k
    return ctx


def _require_matching_codebook(params: CodecParams, cb: Codebook) -> None:
    if params.codebook_hash != cb.version_hash:
        raise CodebookMismatchError(
            f"codec params reference codebook {params.codebook_hash:#x}, "
            f"got {cb.version_hash:#x}"
        )
    if cb.dim != params.embed_dim:
        raise CodebookMismatchError(
            f"codebook dimension {cb.dim} != codec embed_dim {params.embed_dim}"
        )


def encode_message(f_pruned: FeatureMap, mask: Mask, params: CodecParams, cb: Codebook) -> Message:
    """Quantize and entropy-code the unpruned cells into a wire message.

    Encoding takes no receiver-side input whatsoever: the message is a pure
    function of (f_pruned, mask, params, cb). The table precision is
    DEFAULT_PRECISION = 12, or the smallest larger p whose 2^p slots hold
    every distinct codeword. The wire carries p <= MAX_MESSAGE_PRECISION =
    15, so more than 2^15 distinct codewords raise ConfigError.
    """
    require_spatial_match(f_pruned, mask)
    _require_channels(f_pruned, params)
    _require_matching_codebook(params, cb)

    precision = DEFAULT_PRECISION
    flat = mask.bits.ravel()
    if flat.any():
        latents = project_cells(_kept_cells(f_pruned, flat), params)
        idx = quantize_map(latents, cb)
        distinct = int(np.count_nonzero(np.bincount(idx)))
        precision = max(precision, (distinct - 1).bit_length())
        if precision > MAX_MESSAGE_PRECISION:
            limit = f"2^{MAX_MESSAGE_PRECISION}"
            raise ConfigError(f"{distinct} distinct codewords exceed the wire's {limit} slots")
        table = build_freq_table(idx, cb.size, precision)
        payload, state = rans_encode(idx, table)
        freqs = table.freqs
    else:
        payload, state = b"", RANS_L
        freqs = np.zeros(cb.size, dtype=np.int64)
    return Message(
        channels=f_pruned.channels,
        embed_dim=params.embed_dim,
        precision=precision,
        codebook_hash=cb.version_hash,
        mask=mask,
        freqs=freqs,
        payload=payload,
        final_state=state,
    )


@dataclass(frozen=True, eq=False)
class DecoderFit:
    """Ridge solutions for the two decoders of _DECODERS.

    Both objectives (residual + ridge penalty, sum form) are evaluated over
    the whole row (_row) - the unconditional weights are embedded with zeros
    at the context columns they do not read - so cond_objective <=
    uncond_objective holds exactly, not just in exact arithmetic.
    """

    w_cond: np.ndarray
    w_uncond: np.ndarray
    cond_objective: float
    uncond_objective: float
    num_cells: int


def _row(d: int, c: int) -> tuple[tuple[str, int], ...]:
    """The decoder row [latent | context | 1] as (block, width) pairs in column order.

    A coded cell's row holds its D dequantized latent entries, its C-dim
    si_context row and a constant 1.
    """
    return (("latents", d), ("context", c), ("intercept", 1))


def _row_columns(d: int, c: int, blocks: Sequence[str]) -> np.ndarray:
    """The indices of the row's columns that lie in the named blocks."""
    names, widths = zip(*_row(d, c))
    return np.flatnonzero(np.isin(np.repeat(names, widths), blocks))


def _design(latents: np.ndarray, ctx: np.ndarray | None) -> np.ndarray:
    """Decoder rows [latent | context | 1], or [latent | 1] when ctx is None."""
    blocks = [latents] if ctx is None else [latents, ctx]
    return np.concatenate(blocks + [np.ones((len(latents), 1))], axis=1)


def fit_conditional_decoder(
    pairs: Sequence[tuple[FeatureMap, Mask, FeatureMap]],
    codecs: Sequence[tuple[CodecParams, Codebook]],
) -> list[DecoderFit]:
    """Closed-form ridge fits of the conditional decoder and nested baseline.

    pairs are (pruned sender feature, its mask, receiver feature) triples;
    codecs are (params, codebook) pairs, and one DecoderFit is returned per
    codec, in order (an empty codecs raises ConfigError). Each unpruned cell
    gives one design row [dequantized latent | context | 1] with its sender
    channel vector as target. One pass serves every codec: a pair's targets
    and its context are built once; each codec adds its rows into its own
    normal equations (X^T X, X^T Y; the sum of Y^2 is shared) in pair order
    and drops them, so each fit equals its one-codec fit bit for bit. The
    unconditional decoder solves the sub-block of the columns it reads
    (_DECODERS). If the solved conditional objective numerically exceeds the
    embedded unconditional one (possible when the context carries nothing),
    the embedded solution is installed instead, preserving the nested-model
    guarantee exactly. Both fits use the ridge penalty _RIDGE_LAMBDA.
    """
    if not codecs:
        raise ConfigError("no codec to fit a decoder for")
    normal = []
    for params, cb in codecs:
        _require_matching_codebook(params, cb)
        cols = sum(width for _, width in _row(params.embed_dim, params.channels))
        normal.append((np.zeros((cols, cols)), np.zeros((cols, params.channels))))
    yty = 0.0
    m = 0
    for sender_pruned, mask, receiver in pairs:
        require_spatial_match(sender_pruned, mask)
        require_same_shape(sender_pruned, receiver)
        for params, _ in codecs:
            _require_channels(sender_pruned, params)
        flat = mask.bits.ravel()
        if not flat.any():
            continue
        y = _kept_cells(sender_pruned, flat)
        yty += float(np.sum(y * y))
        m += len(y)
        context = None
        for (params, cb), (gram, xty) in zip(codecs, normal):
            # Quantize first, in a one-codec pass's allocation order: building
            # the context first left a later 4-size fit's peak RSS 4 MB higher.
            deq = dequantize(quantize_map(project_cells(y, params), cb), cb)
            if context is None:
                context = si_context(receiver, params, mask)
            x = _design(deq, context)
            gram += x.T @ x
            xty += x.T @ y
            # Free this codec's rows before the next codec builds its own.
            del deq, x
        # Nothing of this pair is read again; free it before the next one.
        del y, context
    return [
        _solve_decoder(params, gram, xty, yty, m)
        for (params, _), (gram, xty) in zip(codecs, normal)
    ]


def _solve_decoder(
    params: CodecParams, gram: np.ndarray, xty: np.ndarray, yty: float, m: int
) -> DecoderFit:
    """Both ridge decoders of one codec from its summed normal equations."""
    lam = _RIDGE_LAMBDA
    d, c, cols = params.embed_dim, params.channels, len(gram)
    if m < cols:
        raise InsufficientDataError(f"need at least {cols} unpruned training cells, got {m}")

    def solve(keep: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(gram[np.ix_(keep, keep)] + lam * np.eye(len(keep)), xty[keep])
        except np.linalg.LinAlgError as exc:
            raise InsufficientDataError("singular normal equations") from exc

    def objective(w: np.ndarray) -> float:
        return float(np.sum(w * (gram @ w - 2.0 * xty)) + yty + lam * np.sum(w * w))

    whole, nested = (_row_columns(d, c, blocks) for _, _, blocks in _DECODERS)
    w_cond, w_uncond = solve(whole), solve(nested)
    w_embedded = np.zeros_like(w_cond)
    w_embedded[nested] = w_uncond
    uncond_objective = objective(w_embedded)
    cond_objective = objective(w_cond)
    if cond_objective > uncond_objective:
        w_cond, cond_objective = w_embedded, uncond_objective
    return DecoderFit(
        w_cond=w_cond,
        w_uncond=w_uncond,
        cond_objective=cond_objective,
        uncond_objective=uncond_objective,
        num_cells=m,
    )


def _require_message_channels(msg: Message, params: CodecParams) -> None:
    if msg.channels != params.channels:
        raise HeaderMismatchError(
            f"message carries {msg.channels} channels, codec expects {params.channels}"
        )


def _decoder_weights(params: CodecParams, conditional: bool) -> np.ndarray:
    field = _DECODERS[0 if conditional else 1][0]
    if (w := getattr(params, field)) is None:
        kind = "conditional" if conditional else "unconditional"
        raise ConfigError(f"{kind} decoder ({field}) is not fitted")
    return w


def decode_latents(msg: Message, params: CodecParams, cb: Codebook) -> np.ndarray:
    """First decode stage: the dequantized latents of the coded cells.

    Checks the header against params and cb, rANS-decodes the symbols and
    looks up their codewords, _LATENT_BAND symbols at a time, into the
    result. Returns (msg.num_symbols, D) float64 rows in row-major cell
    order. Every failure is a DecodeError subclass.
    """
    if msg.codebook_hash != cb.version_hash:
        raise CodebookMismatchError(
            f"message was coded against codebook {msg.codebook_hash:#x}, "
            f"got {cb.version_hash:#x}"
        )
    _require_matching_codebook(params, cb)
    if msg.codebook_size != cb.size or msg.embed_dim != cb.dim:
        raise CodebookMismatchError("message header disagrees with the codebook geometry")
    _require_message_channels(msg, params)
    if msg.num_symbols == 0:
        return np.zeros((0, params.embed_dim))
    idx = rans_decode(msg.payload, msg.table, msg.num_symbols, msg.final_state)
    latents = np.empty((msg.num_symbols, params.embed_dim))
    for start in range(0, msg.num_symbols, _LATENT_BAND):
        band = slice(start, start + _LATENT_BAND)
        dequantize(idx[band], cb, out=latents[band])
    return latents


def reconstruct(
    msg: Message, latents: np.ndarray, params: CodecParams, context: np.ndarray | None = None
) -> FeatureMap:
    """Second decode stage: map latents to channel space at the coded cells.

    With context rows (si_context of the receiver at msg.mask) the
    conditional decoder w_cond maps [latent | context | 1] to channels;
    without them the unconditional decoder w_uncond maps [latent | 1].
    latents are decode_latents(msg, params, cb). Pruned cells come back as
    exact zeros.

    The coded cells are taken in bands of _BAND_CELLS rows (a lone last row
    joins the band before it): each band's decoder rows are built,
    multiplied by the weights as (rows @ w), cast to float32 and written,
    transposed, into one (C, n) block. OpenBLAS's SkylakeX and Sandybridge
    kernels give a row's product the same bits in a band of two or more
    rows as in the whole (n, row) product. Its Haswell, Zen and Prescott
    kernels sum a row by the tile that holds it, so weights whose terms
    cancel far below their size can change a float64 bit there; a test pins
    the float32 block to the whole product under several kernels. When
    every cell is coded the block is the map; otherwise it is scattered once
    onto the coded cells of a zeroed map. The block is checked for
    finiteness first; a decoder that drives it past float32 range raises
    ConfigError.
    """
    w = _decoder_weights(params, context is not None)
    _require_message_channels(msg, params)
    c, n = params.channels, msg.num_symbols
    for (name, width), rows in zip(_row(params.embed_dim, c), (latents, context)):
        if rows is not None and rows.shape != (n, width):
            raise ShapeMismatchError(f"{name} must have shape ({n}, {width}), got {rows.shape}")
    block = np.empty((c, n), dtype=np.float32)
    start = 0
    # Overflow to inf/nan is exactly what the block check reports, so numpy
    # warnings are suppressed rather than surfaced.
    with np.errstate(over="ignore", invalid="ignore"):
        while start < n:
            # A one-row product runs as OpenBLAS's matrix-vector kernel, which
            # sums in another order: a lone last row joins the band before it.
            band = slice(start, n if n - start <= _BAND_CELLS + 1 else start + _BAND_CELLS)
            rows = _design(latents[band], None if context is None else context[band]) @ w
            block[:, band] = rows.astype(np.float32).T
            start = band.stop
    if not np.isfinite(block).all():
        raise ConfigError("feature map contains non-finite values")
    shape = (c, msg.height, msg.width)
    if n == msg.height * msg.width:
        return _frozen_map(block.reshape(shape))
    out = np.zeros(shape, dtype=np.float32)
    out.reshape(c, -1)[:, msg.mask.bits.ravel()] = block
    return _frozen_map(out)


def decode_message(
    msg: Message, params: CodecParams, cb: Codebook, f_local: FeatureMap | None = None
) -> FeatureMap:
    """Reconstruct the sender feature, conditioned on f_local when given.

    The conditional decoder reads f_local's context; without f_local the
    unconditional one (the ablation baseline) decodes. Pruned cells come back
    as exact zeros. Every argument is checked once before any symbol is
    decoded (the header by decode_latents); then the two stages run:
    decode_latents, and reconstruct with si_context(f_local, params, msg.mask).
    """
    _decoder_weights(params, f_local is not None)
    if f_local is not None and f_local.shape != (msg.channels, msg.height, msg.width):
        raise HeaderMismatchError(
            f"local feature shape {f_local.shape} does not match message header "
            f"({msg.channels},{msg.height},{msg.width})"
        )
    latents = decode_latents(msg, params, cb)
    context = None if f_local is None else si_context(f_local, params, msg.mask)
    return reconstruct(msg, latents, params, context)


def finetune_step(
    params: CodecParams,
    cb: Codebook,
    batch: Sequence[tuple[FeatureMap, FeatureMap]],
    lr: float,
    assignments: np.ndarray | None = None,
    update_codebook: bool = True,
) -> tuple[CodecParams, Codebook, float]:
    """One gradient step on the encoder projection, mean and conditional decoder.

    The quantizer's Jacobian is replaced by identity (straight-through): the
    decoder consumes the assigned codewords in the forward pass while the
    reconstruction gradient flows into the projection as if it consumed the
    latents. The loss is the reconstruction MSE plus (1 + _COMMITMENT_BETA)
    times the mean squared latent-to-codeword distance per cell (the codebook
    and commitment terms); the codebook itself carries no gradient and is
    refreshed by an exponential moving average (decay _EMA_DECAY) over
    assigned latents when update_codebook is set. Passing precomputed
    assignments (integer codeword indices in [0, K), one per cell in batch
    order, checked before the projection) freezes the quantizer, which
    makes the step a plain smooth gradient step. The decoder context is
    si_context of each receiver at every cell; it does not depend on the
    projection or mean, so it carries no gradient to them.

    Returns (updated params, updated codebook, loss before the step). The
    loss is evaluated at the incoming parameters; a non-finite loss or
    gradient rejects the step and leaves every input untouched.
    """
    require_nonnegative("lr", lr)
    if not batch:
        raise ConfigError("finetune batch must be non-empty")
    w_cond = _decoder_weights(params, conditional=True)
    _require_matching_codebook(params, cb)

    sender_cells, ctx_rows = [], []
    for f_sender, f_receiver in batch:
        require_same_shape(f_sender, f_receiver)
        _require_channels(f_sender, params)
        sender_cells.append(f_sender.cell_vectors())
        ctx_rows.append(
            si_context(f_receiver, params, Mask.ones(f_receiver.height, f_receiver.width))
        )
    v = np.concatenate(sender_cells, axis=0)
    ctx = np.concatenate(ctx_rows, axis=0)
    m = v.shape[0]
    c = params.channels
    d = params.embed_dim

    if assignments is not None:
        assign = np.asarray(assignments)
        if assign.shape != (m,):
            raise ShapeMismatchError(
                f"assignments must have one entry per cell ({m}), got {assign.shape}"
            )
        if not np.issubdtype(assign.dtype, np.integer):
            raise ConfigError(f"assignments must be integer indices, got dtype {assign.dtype}")
        if assign.min() < 0 or assign.max() >= cb.size:
            raise ConfigError(f"assignments must be in [0, {cb.size}) for this codebook")
    z = project_cells(v, params)
    if assignments is None:
        assign = quantize_map(z, cb)
    # Overflow to inf/nan here is exactly the condition the rejection path
    # reports, so numpy warnings are suppressed rather than surfaced.
    with np.errstate(over="ignore", invalid="ignore"):
        codewords = dequantize(assign, cb)
        x = _design(codewords, ctx)
        resid = x @ w_cond - v

        gap = z - codewords
        l_rec = float(np.mean(resid * resid))
        l_gap = float(np.sum(gap * gap) / m)
        loss = l_rec + l_gap + _COMMITMENT_BETA * l_gap

        g_resid = (2.0 / (m * c)) * resid
        g_w = x.T @ g_resid
        w_latents = w_cond[_row_columns(d, c, ("latents",))]
        g_z = g_resid @ w_latents.T + (2.0 * _COMMITMENT_BETA / m) * gap
        g_proj = g_z.T @ (v - params.mean)
        g_mean = -params.projection.T @ g_z.sum(axis=0)

    if not np.isfinite(loss) or not (
        np.isfinite(g_w).all() and np.isfinite(g_proj).all() and np.isfinite(g_mean).all()
    ):
        raise StepRejectedError("non-finite fine-tune loss or gradient; step rejected")

    new_params = replace(
        params,
        projection=params.projection - lr * g_proj,
        mean=params.mean - lr * g_mean,
        w_cond=w_cond - lr * g_w,
    )
    new_cb = cb
    if update_codebook:
        updated = cb.codewords.astype(np.float64).copy()
        for k in np.unique(assign):
            updated[k] = _EMA_DECAY * updated[k] + (1.0 - _EMA_DECAY) * z[assign == k].mean(axis=0)
        new_cb = Codebook(updated)
        new_params = replace(new_params, codebook_hash=new_cb.version_hash)
    return new_params, new_cb, loss


def save_codec_params(params: CodecParams, path) -> None:
    """Write the version-4 DCCP container (header + f64 LE weight blocks)."""
    flags = sum(bit for field, bit, _ in _DECODERS if getattr(params, field) is not None)
    weights = [w for field, _, _ in _DECODERS if (w := getattr(params, field)) is not None]
    fields = (_DCCP_VERSION, flags, params.channels, params.embed_dim, params.codebook_hash)
    blocks = [("<f8", block) for block in (params.projection, params.mean, *weights)]
    write_container(path, _DCCP_HEADER, _DCCP_MAGIC, fields, blocks)


def _dccp_layout(version: int, flags: int, c: int, d: int, _cb_hash) -> list:
    """The DCCP blocks' (dtype, shape), after the version and flag bits pass."""
    if version != _DCCP_VERSION:
        raise FormatError(f"unsupported codec params version {version}")
    if flags & ~sum(bit for _, bit, _ in _DECODERS):
        raise FormatError(f"undefined codec params flag bits {flags:#04x}")
    weights = [(len(_row_columns(d, c, blocks)), c) for _, bit, blocks in _DECODERS if flags & bit]
    return [("<f8", shape) for shape in [(d, c), (c,), *weights]]


def _stored_params(version, flags, c, d, cb_hash, projection, mean, *weights) -> CodecParams:
    saved = [field for field, bit, _ in _DECODERS if flags & bit]
    return CodecParams(projection, mean, cb_hash, **dict(zip(saved, weights)))


def load_codec_params(path) -> CodecParams:
    """Read a DCCP container; a malformed file raises FormatError."""
    return read_container(
        path, "codec params", _DCCP_HEADER, _DCCP_MAGIC, _dccp_layout, _stored_params
    )
