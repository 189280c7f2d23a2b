"""The conditional codec: linear encoder, discrete bottleneck, context decoder.

Sender side: per-cell channel vectors are mean-centered, projected to a
D-dimensional latent (PCA fit offline), vector-quantized against a shared
codebook, and entropy-coded into a self-describing message. Encoding never
sees any receiver-side data; a message is a pure function of the pruned
feature, the mask, the codec parameters and the codebook.

Receiver side: the local feature is turned into a per-cell context vector
(the channel-space box mean of the receiver's own feature over a small
neighborhood, computed only at the coded cells; it uses none of the encoder's
projection), and a ridge-fit linear decoder maps
[dequantized latent | context | 1] back to channel space. The unconditional
decoder, fit on the same data without the context block, is the ablation
baseline: decode_message without a local feature. Because it is nested
inside the conditional model, its training objective can never beat the
conditional one.

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
    require_int,
    require_nonnegative,
)
from .features import FeatureMap, Mask, require_same_shape, require_spatial_match
from .quantizer import Codebook, dequantize, quantize_map
from .rans import MIN_PRECISION, RANS_L, FrequencyTable, build_freq_table, rans_decode, rans_encode
from .wire import MAX_MESSAGE_PRECISION, Message

DEFAULT_PRECISION = 12

_DCCP_MAGIC = b"DCCP"
_DCCP_VERSION = 2
_DCCP_HEADER = struct.Struct("<4sBBHHBdddQ")
_FLAG_HAS_COND = 1
_FLAG_HAS_UNCOND = 2
# Weight of the old codeword in finetune_step's moving-average refresh.
_EMA_DECAY = 0.99


@dataclass(frozen=True)
class CodecParams:
    """All learnable state of one codec except the codebook itself.

    projection/mean define the encoder only; w_cond maps
    [latent | context | 1] to channels, where the context is the C-dim
    channel-space row of si_context, and w_uncond maps [latent | 1]. The
    codebook is referenced by version hash so a mismatch between encoder and
    decoder is detected instead of silently corrupting. C, D, the context
    radius and the codebook hash are checked against the DCCP header fields
    that store them, so a constructed instance always saves.
    """

    projection: np.ndarray
    mean: np.ndarray
    codebook_hash: int
    context_radius: int = 1
    ridge_lambda: float = 1e-3
    recon_weight: float = 1.0
    commitment_beta: float = 0.25
    w_cond: np.ndarray | None = None
    w_uncond: np.ndarray | None = None

    def __post_init__(self) -> None:
        proj = frozen_array("projection", self.projection, np.float64, (None, None))
        d, c = proj.shape
        if max(d, c) > 0xFFFF:
            raise ConfigError("projection dimensions must fit unsigned 16-bit fields")
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "mean", frozen_array("mean", self.mean, np.float64, (c,)))
        require_int("context_radius", self.context_radius, 0, 0xFF)
        require_int("codebook_hash", self.codebook_hash, 0, 2**64 - 1)
        require_nonnegative("ridge_lambda", self.ridge_lambda)
        require_nonnegative("recon_weight", self.recon_weight)
        require_nonnegative("commitment_beta", self.commitment_beta)
        if self.w_cond is not None:
            w_cond = frozen_array("w_cond", self.w_cond, np.float64, (d + c + 1, c))
            object.__setattr__(self, "w_cond", w_cond)
        if self.w_uncond is not None:
            w_uncond = frozen_array("w_uncond", self.w_uncond, np.float64, (d + 1, c))
            object.__setattr__(self, "w_uncond", w_uncond)

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

    The cells of every map are copied once into one column-major (N, C)
    float64 matrix, which is then centred in place, so the fit holds a
    single copy of the training cells. Column-major is the layout the mean
    and covariance have always been computed in, and it fixes their bits. Principal directions are ordered by decreasing variance
    with a fixed sign convention (the largest-magnitude component of each
    direction is made positive). Directions beyond the data rank, and rows beyond C when
    D > C, are zero-padded.
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
    x = np.empty((n, c), order="F")
    pos = 0
    for f in training_features:
        cells = f.height * f.width
        x[pos : pos + cells] = f.values.reshape(c, cells).T
        pos += cells
    mean = x.mean(axis=0)
    x -= mean
    cov = x.T @ x / n
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


def project_cells(cells: np.ndarray, params: CodecParams) -> np.ndarray:
    """(M, C) channel vectors -> (M, D) latents through the encoder projection."""
    return (cells - params.mean) @ params.projection.T


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


def _window_sums(grid: np.ndarray, bits: np.ndarray, radius: int) -> np.ndarray:
    """Sum the (2r+1)^2 windows of a zero-padded grid at the set cells of bits.

    grid is (H+2r, W+2r, X) with the (H, W) cells at offset (r, r); the
    result is (bits.sum(), X) float64 in row-major cell order. Each window
    row is summed left to right and the row sums top to bottom, whether as
    row gathers at the kept cells (sparse bits) or as whole-map shifted
    slices (dense bits), so both evaluations make the same adds in the same
    order and give the same bits.
    """
    h, w = bits.shape
    k = 2 * radius + 1
    if np.count_nonzero(bits) < _GATHER_MAX_SHARE * bits.size:
        wp = w + 2 * radius
        ys, xs = np.nonzero(bits)
        starts = ys * wp + xs
        rows = grid.reshape(-1, grid.shape[2])
        return _add_in_order(
            _add_in_order(np.take(rows, starts + (dy * wp + dx), axis=0) for dx in range(k))
            for dy in range(k)
        )
    line_sums = _add_in_order(grid[:, dx : dx + w] for dx in range(k))
    return _add_in_order(line_sums[dy : dy + h] for dy in range(k))[bits]


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
    padding) genuinely differ from interior ones.
    """
    _require_channels(f_local, params)
    require_spatial_match(f_local, mask)
    h, w = f_local.height, f_local.width
    r = params.context_radius
    k = 2 * r + 1
    hp, wp = h + 2 * r, w + 2 * r
    bits = mask.bits
    near = np.zeros((hp, wp), dtype=bool)
    for dy in range(k):
        for dx in range(k):
            near[dy : dy + h, dx : dx + w] |= bits
    cells = np.flatnonzero(near[r : r + h, r : r + w])
    ys, xs = np.divmod(cells, w)
    # float32 holds the feature values exactly; the window sums are float64.
    grid = np.zeros((hp * wp, f_local.channels), dtype=np.float32)
    grid[(ys + r) * wp + (xs + r)] = np.take(
        f_local.values.reshape(f_local.channels, -1), cells, axis=1
    ).T
    ctx = _window_sums(grid.reshape(hp, wp, -1), bits, r)
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


def encode_message(
    f_pruned: FeatureMap,
    mask: Mask,
    params: CodecParams,
    cb: Codebook,
    precision: int = DEFAULT_PRECISION,
) -> Message:
    """Quantize and entropy-code the unpruned cells into a wire message.

    Encoding takes no receiver-side input whatsoever: the message is a pure
    function of (f_pruned, mask, params, cb, precision). precision must lie
    in [MIN_PRECISION, MAX_MESSAGE_PRECISION] = [8, 15], the range whose
    frequencies (up to 2^p for a single-symbol map) fit the wire's u16 table.
    """
    require_int("precision", precision, MIN_PRECISION, MAX_MESSAGE_PRECISION)
    require_spatial_match(f_pruned, mask)
    _require_channels(f_pruned, params)
    _require_matching_codebook(params, cb)

    flat = mask.bits.ravel()
    n = int(flat.sum())
    if n > 0:
        cells = f_pruned.cell_vectors()[flat]
        latents = project_cells(cells, params)
        idx = quantize_map(latents, cb)
        table = build_freq_table(idx, cb.size, precision)
        payload, state = rans_encode(idx, table)
        freqs = table.freqs
    else:
        payload, state = b"", RANS_L
        freqs = np.zeros(cb.size, dtype=np.int64)
    return Message(
        channels=f_pruned.channels,
        height=f_pruned.height,
        width=f_pruned.width,
        embed_dim=params.embed_dim,
        codebook_size=cb.size,
        precision=precision,
        codebook_hash=cb.version_hash,
        mask=mask,
        num_symbols=n,
        freqs=freqs,
        payload=payload,
        final_state=state,
    )


@dataclass(frozen=True)
class DecoderFit:
    """Ridge solutions for the conditional decoder and its nested baseline.

    Both objectives (residual + ridge penalty, sum form) are evaluated in the
    common conditional design space - the unconditional weights are embedded
    with zero context coefficients - so cond_objective <= uncond_objective
    holds exactly, not just in exact arithmetic.
    """

    w_cond: np.ndarray
    w_uncond: np.ndarray
    cond_objective: float
    uncond_objective: float
    num_cells: int


def _design(latents: np.ndarray, ctx: np.ndarray | None) -> np.ndarray:
    """Decoder rows [latent | context | 1], or [latent | 1] when ctx is None."""
    blocks = [latents] if ctx is None else [latents, ctx]
    return np.concatenate(blocks + [np.ones((len(latents), 1))], axis=1)


def fit_conditional_decoder(
    pairs: Sequence[tuple[FeatureMap, Mask, FeatureMap]],
    params: CodecParams,
    cb: Codebook,
) -> DecoderFit:
    """Closed-form ridge fit of the conditional decoder and nested baseline.

    pairs are (pruned sender feature, its mask, receiver feature) triples.
    Each unpruned cell gives one design row [dequantized latent | context | 1]
    with its sender channel vector as target; the rows of one pair are added
    into the normal equations (X^T X, X^T Y and the sum of Y^2) and dropped,
    so no stacked design matrix is built. The unconditional decoder solves
    the latent + intercept sub-block of the same equations. If the solved
    conditional objective numerically exceeds the embedded unconditional one
    (possible when the context carries nothing), the embedded solution is
    installed instead, preserving the nested-model guarantee exactly. The
    ridge penalty is params.ridge_lambda.
    """
    _require_matching_codebook(params, cb)
    lam = params.ridge_lambda
    d, c = params.embed_dim, params.channels
    cols = d + c + 1
    gram = np.zeros((cols, cols))
    xty = np.zeros((cols, c))
    yty = 0.0
    m = 0
    for sender_pruned, mask, receiver in pairs:
        require_spatial_match(sender_pruned, mask)
        require_same_shape(sender_pruned, receiver)
        _require_channels(sender_pruned, params)
        flat = mask.bits.ravel()
        if not flat.any():
            continue
        y = sender_pruned.cell_vectors()[flat]
        deq = dequantize(quantize_map(project_cells(y, params), cb), cb)
        x = _design(deq, si_context(receiver, params, mask))
        gram += x.T @ x
        xty += x.T @ y
        yty += float(np.sum(y * y))
        m += len(y)
    if m < cols:
        raise InsufficientDataError(f"need at least {cols} unpruned training cells, got {m}")

    def solve(keep: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(gram[np.ix_(keep, keep)] + lam * np.eye(len(keep)), xty[keep])
        except np.linalg.LinAlgError as exc:
            raise InsufficientDataError(
                "singular normal equations; increase ridge_lambda"
            ) from exc

    def objective(w: np.ndarray) -> float:
        return float(np.sum(w * (gram @ w - 2.0 * xty)) + yty + lam * np.sum(w * w))

    latent_and_intercept = np.r_[0:d, cols - 1]
    w_cond = solve(np.arange(cols))
    w_uncond = solve(latent_and_intercept)
    w_embedded = np.zeros_like(w_cond)
    w_embedded[latent_and_intercept] = w_uncond
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


def _check_decode_inputs(msg: Message, params: CodecParams, cb: Codebook) -> None:
    if msg.codebook_hash != cb.version_hash:
        raise CodebookMismatchError(
            f"message was coded against codebook {msg.codebook_hash:#x}, "
            f"got {cb.version_hash:#x}"
        )
    _require_matching_codebook(params, cb)
    if msg.codebook_size != cb.size or msg.embed_dim != cb.dim:
        raise CodebookMismatchError("message header disagrees with the codebook geometry")
    if msg.channels != params.channels:
        raise HeaderMismatchError(
            f"message carries {msg.channels} channels, codec expects {params.channels}"
        )


def decode_message(
    msg: Message, params: CodecParams, cb: Codebook, f_local: FeatureMap | None = None
) -> FeatureMap:
    """Reconstruct the sender feature, conditioned on f_local when given.

    With the receiver's local feature the conditional decoder maps
    [latent | context | 1] to channels; without it the unconditional decoder
    maps [latent | 1] (the ablation baseline). Pruned cells come back as
    exact zeros; the result is fusion-ready.
    """
    _check_decode_inputs(msg, params, cb)
    if f_local is None:
        w, name = params.w_uncond, "unconditional decoder (w_uncond)"
    else:
        w, name = params.w_cond, "conditional decoder (w_cond)"
    if w is None:
        raise ConfigError(f"{name} is not fitted")
    if f_local is not None and f_local.shape != (msg.channels, msg.height, msg.width):
        raise HeaderMismatchError(
            f"local feature shape {f_local.shape} does not match message header "
            f"({msg.channels},{msg.height},{msg.width})"
        )
    out = np.zeros((msg.channels, msg.height, msg.width), dtype=np.float32)
    if msg.num_symbols > 0:
        table = FrequencyTable(msg.freqs, msg.precision)
        idx = rans_decode(msg.payload, table, msg.num_symbols, msg.final_state)
        ctx = None if f_local is None else si_context(f_local, params, msg.mask)
        recon = _design(dequantize(idx, cb), ctx) @ w
        out.reshape(msg.channels, -1)[:, msg.mask.bits.ravel()] = recon.T.astype(np.float32)
    return FeatureMap(out)


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
    latents. The loss is recon_weight * reconstruction MSE plus the codebook
    and commitment terms; the codebook itself carries no gradient and is
    refreshed by an exponential moving average (decay _EMA_DECAY) over
    assigned latents when update_codebook is set. Passing precomputed
    assignments freezes the quantizer, which makes the step a plain smooth
    gradient step. The decoder context is si_context of each receiver at
    every cell; it does not depend on the projection or mean, so it carries
    no gradient to them.

    Returns (updated params, updated codebook, loss before the step). The
    loss is evaluated at the incoming parameters; a non-finite loss or
    gradient rejects the step and leaves every input untouched.
    """
    require_nonnegative("lr", lr)
    if not batch:
        raise ConfigError("finetune batch must be non-empty")
    if params.w_cond is None:
        raise ConfigError("conditional decoder weights are not fitted")
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

    z = project_cells(v, params)
    if assignments is None:
        assign = quantize_map(z, cb)
    else:
        assign = np.asarray(assignments, dtype=np.int64)
        if assign.shape != (m,):
            raise ShapeMismatchError(
                f"assignments must have one entry per cell ({m}), got {assign.shape}"
            )
    # Overflow to inf/nan here is exactly the condition the rejection path
    # reports, so numpy warnings are suppressed rather than surfaced.
    with np.errstate(over="ignore", invalid="ignore"):
        codewords = dequantize(assign, cb)
        x = _design(codewords, ctx)
        resid = x @ params.w_cond - v

        gap = z - codewords
        l_rec = float(np.mean(resid * resid))
        l_gap = float(np.sum(gap * gap) / m)
        loss = params.recon_weight * l_rec + l_gap + params.commitment_beta * l_gap

        g_resid = (2.0 * params.recon_weight / (m * c)) * resid
        g_w = x.T @ g_resid
        g_z = g_resid @ params.w_cond[:d].T + (2.0 * params.commitment_beta / m) * gap
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
        w_cond=params.w_cond - lr * g_w,
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
    """Write the versioned DCCP container (header + f64 LE weight blocks)."""
    flags = 0
    if params.w_cond is not None:
        flags |= _FLAG_HAS_COND
    if params.w_uncond is not None:
        flags |= _FLAG_HAS_UNCOND
    with open(path, "wb") as fh:
        fh.write(
            _DCCP_HEADER.pack(
                _DCCP_MAGIC,
                _DCCP_VERSION,
                flags,
                params.channels,
                params.embed_dim,
                params.context_radius,
                params.ridge_lambda,
                params.recon_weight,
                params.commitment_beta,
                params.codebook_hash,
            )
        )
        fh.write(params.projection.astype("<f8").tobytes())
        fh.write(params.mean.astype("<f8").tobytes())
        if params.w_cond is not None:
            fh.write(params.w_cond.astype("<f8").tobytes())
        if params.w_uncond is not None:
            fh.write(params.w_uncond.astype("<f8").tobytes())


def load_codec_params(path) -> CodecParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _DCCP_HEADER.size:
        raise FormatError("codec params file too short for header")
    magic, version, flags, c, d, radius, lam, recon_w, beta, cb_hash = _DCCP_HEADER.unpack_from(
        data, 0
    )
    if magic != _DCCP_MAGIC:
        raise FormatError(f"bad codec params magic {magic!r}")
    if version != _DCCP_VERSION:
        raise FormatError(f"unsupported codec params version {version}")
    pos = _DCCP_HEADER.size

    def block(rows: int, cols: int, what: str) -> np.ndarray:
        nonlocal pos
        nbytes = 8 * rows * cols
        if pos + nbytes > len(data):
            raise FormatError(f"codec params file truncated in {what}")
        arr = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=pos).reshape(rows, cols)
        pos += nbytes
        return arr

    projection = block(d, c, "projection")
    mean = block(1, c, "mean")[0]
    w_cond = block(d + c + 1, c, "w_cond") if flags & _FLAG_HAS_COND else None
    w_uncond = block(d + 1, c, "w_uncond") if flags & _FLAG_HAS_UNCOND else None
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes in codec params file")
    return CodecParams(
        projection=projection,
        mean=mean,
        codebook_hash=cb_hash,
        context_radius=radius,
        ridge_lambda=lam,
        recon_weight=recon_w,
        commitment_beta=beta,
        w_cond=w_cond,
        w_uncond=w_uncond,
    )
