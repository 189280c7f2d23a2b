"""Vector quantization: codebook learning, assignment, dequantization.

Codewords live in the encoder's embedding space. Assignment is by squared
Euclidean distance with ties broken toward the LOWEST index, fixed so that
bitstreams are reproducible across platforms. The codebook is learned with
k-means++ initialization and Lloyd iterations; an empty cluster is reseeded
to the sample currently farthest from its assigned centroid, which keeps the
distortion sequence non-increasing and avoids dead codewords that would
waste index entropy.

Every squared distance is computed by one numpy kernel (``_sqdist``) in one
float order: the sum of (x_d - c_d)^2 over d = 0..D-1, which gives scipy's
``cdist`` sqeuclidean bit for bit, and every assignment is the lowest-index
argmin of those numbers. The module needs numpy only; the tests keep cdist
as their reference. Assignment (``_nearest``, behind ``quantize_map`` and
every Lloyd iteration) returns indices only and runs in blocks of about
2^18 distances (1 MB of float32), so a block's row count shrinks as K
grows; a row's result does not depend on the block it is in. Every block is
first screened with one float32 BLAS product that estimates every distance;
a row is assigned from the estimate only when a rounding bound proves that
the estimate picks cdist's answer, and every other row (ties, near-ties,
values too large or too small for float32, non-finite values) is decided on
its exact row of distances to every codeword. BLAS never decides an
assignment that the bound has not proved, so the result is cdist's on every
platform.
Every distance Lloyd's loop reads comes from the same kernel, one known
centre per sample with the samples read column by column: the k-means++
weights, the distortion after each assignment and the reseed pass. So
kmeans_fit reads its (N, D) samples as a (D, N) block; given the .T view
of a C-order (D, N) block, as the codec fit passes its sample, it makes no
copy of them. The
k-means++ init screens each new centre with the same float32 estimate and
bound, and measures exactly only the samples the bound cannot prove farther
from the new centre than from their nearest centre so far.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    InsufficientDataError,
    ShapeMismatchError,
    SymbolOutOfRangeError,
    frozen_array,
    index_array,
    read_container,
    require_int,
    write_container,
)

_CDBK_MAGIC = b"CDBK"
_CDBK_HEADER = struct.Struct("<4sHHQ")
# Distances per block: 2^18 exact float64 distances (2 MB), or float32
# estimates (1 MB), stay cache-sized.
_BLOCK_DISTANCES = 1 << 18
# The float32 screen's unit roundoff, and its bound on the absolute error
# of one rounding into the subnormal range or to zero (see _nearest).
_F32_ROUNDOFF = 2.0**-24
_F32_TINY = 2.0**-126


def codebook_hash(codewords: np.ndarray) -> int:
    """64-bit digest of (K, D, little-endian f32 entries)."""
    arr = np.ascontiguousarray(codewords, dtype="<f4")
    k, d = arr.shape
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<HH", k, d))
    h.update(arr.tobytes())
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True, eq=False)
class Codebook:
    """Immutable K x D codeword matrix with a content-derived version hash.

    version_hash is codebook_hash(codewords), computed once at construction
    since the codewords are frozen.
    """

    codewords: np.ndarray
    version_hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = frozen_array("codebook", self.codewords, np.float32, (None, None))
        if arr.shape[0] > 0xFFFF or arr.shape[1] > 0xFFFF:
            raise ConfigError("codebook dimensions must fit unsigned 16-bit fields")
        object.__setattr__(self, "codewords", arr)
        object.__setattr__(self, "version_hash", codebook_hash(arr))

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]


@np.errstate(over="ignore", invalid="ignore")
def _nearest(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Lowest-index argmin of cdist's squared distances, as int32 indices.

    Rows go in blocks of about _BLOCK_DISTANCES distances; a row's result
    does not depend on its block. Every block is first screened in float32.
    With x' and c'_j the float32 roundings of a row x and of codeword c_j,
    and h_j = |c'_j|^2 / 2 computed in float32,

        est_j = (x', 1) . (-c'_j, h_j) ~ (|x' - c'_j|^2 - |x'|^2) / 2,

    one float32 dot product of length D + 1 per codeword, so a block's
    estimates are one GEMM of the lifted codewords (-c'_j, h_j) with the
    lifted rows (x', 1). (The k-means++ init computes the same estimate as the
    length-D product -x' . c'_j plus one rounded add of h_j; the bound below
    holds for either.) The row is settled when the smallest estimate m is
    the only one at or below the float32 sum m + tol(x), tol(x) the row's
    _screen_tol.

    The bound. Let u = 2^-24 and eta = 2^-126, write |.| for the Euclidean
    norm, a = |x|, b_j = |c_j|, R = a + max_j b_j, d_j = |x - c_j|^2 (a
    real number) and D_j for cdist's float64 entry, and let gamma_n =
    n u / (1 - n u) and gamma'_n the same with 2^-53 in place of u. If
    R < 2^63 and (2D + 9) u <= 1/16, then for any two codewords i and j

        est_j > fl32(est_i + tol(x)),
        tol(x) = 1.01 gamma_{2D+9} R^2 + 8 (D + 3) eta,

    proves D_j > D_i. A row for which either condition fails never settles.
    Applied with i the smallest estimate and j every other codeword, a
    settled row's smallest estimate is the unique smallest cdist entry, so
    its index is cdist's argmin.

    Why. A float32 operation, or the rounding of a float64 value to
    float32, returns z (1 + delta) + e with |delta| <= u and |e| <= eta.
    With gradual underflow (IEEE 754's default) |e| is at most 2^-150,
    half the subnormal spacing 2^-149; eta = 2^-126, the smallest normal,
    also covers flushing subnormal results or inputs to zero. So, in any
    summation order, with or without FMA (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, ch. 3), a length-n dot product is within
    gamma_n times the sum of its absolute terms plus 2n (1 + gamma_n) eta,
    and:
      - the rounding to float32: |x' - x| <= u a + sqrt(D) eta, the same
        for c'_j, so with d'_j = |x' - c'_j|^2 and rho = u R + 2 sqrt(D) eta,
        |d'_j - d_j| <= rho (2 R + rho) <= (6u + 5u^2) R^2 + 4 (1 + u) eta
        + 4 D eta^2, as sqrt(D) eta R <= u R^2 + eta for D < 2^102;
      - the estimate: with a' = |x'| and b' = |c'_j|, h_j is within
        gamma_D b'^2/2 + (D (1 + gamma_D) + 1) eta of b'^2/2, so est_j is
        within gamma_{2D+1} (a'b' + b'^2/2) + (3D + 3)(1 + gamma_{D+1})^2 eta
        of e_j = (d'_j - |x'|^2)/2 (as gamma_{D+1} + gamma_D + gamma_{D+1}
        gamma_D <= gamma_{2D+1}; the init's product-then-add is within
        gamma_{D+1} (a'b' + b'^2/2) + ((1 + u)(3D (1 + gamma_D) + 1) + 1)
        eta, less), where a'b' + b'^2/2 <= (a' + b')^2 / 2 <=
        ((1 + u) R + 2 sqrt(D) eta)^2 / 2;
      - cdist: D_j is within gamma'_{D+2} d_j + D 2^-1022 of d_j (D
        differences, D squares and D-1 adds in float64), and d_j <= R^2.
    With (2D + 9) u <= 1/16 (so every gamma here is at most 1/15) these add
    up to |2 est_j - D_j + |x'|^2| <= E = gamma_{2D+8} R^2 + (6.9 D + 12)
    eta for every j: the terms beyond gamma_{2D+1} R^2 fit in gamma_{2D+8}
    - gamma_{2D+1} >= 7u. |x'|^2 is the same for every j, so D_j - D_i >=
    2 (est_j - est_i) - 2E, which is positive once est_j - est_i > E. The
    float32 sum t = fl32(est_i + tol) is at least est_i + tol minus
    u |est_i + tol| + eta, and |est_i| <= (1 + 6u) R^2 / 2 + E, so est_j > t
    gives est_j - est_i > E: gamma_{2D+9} - gamma_{2D+8} >= u covers the
    u R^2 / 2, the factor 1.01 covers the float64 evaluation of tol and its
    rounding to float32, and 8 (D + 3) eta covers (6.9 D + 13) eta.

    Overflow. With R < 2^63 every float32 input is below 2^64 and every
    product, partial sum, estimate and m + tol below 2^127, so every
    estimate of a row with a finite tol is finite, and m <= fl32(m + tol).
    Any other row gets a NaN tol. Its estimates may overflow (silently: the
    screen runs with float overflow and invalid-value warnings off), but
    m + tol is NaN and no comparison with NaN holds, so no estimate of it
    is at or below its threshold and the row never settles.

    BLAS never decides an assignment that the bound has not proved. Every
    other row (ties, near-ties, rows past float32 range, rows whose terms
    drown in the eta term, non-finite rows) gets the lowest-index argmin of
    its row of _sqdist distances to every codeword, which are cdist's bit
    for bit, so the indices are those of a cdist pass whichever path a row
    takes. No distance is returned; a caller that needs one measures it with
    _sqdist.
    """
    n, dim = vectors.shape
    k = codewords.shape[0]
    idx = np.empty(n, dtype=np.int32)
    rows = max(1, _BLOCK_DISTANCES // k)
    low_c = codewords.astype(np.float32)
    lifted_c = np.empty((k, dim + 1), dtype=np.float32)
    np.negative(low_c, out=lifted_c[:, :dim])
    lifted_c[:, dim] = 0.5 * np.einsum("kd,kd->k", low_c, low_c)
    max_norm = np.sqrt(np.einsum("kd,kd->k", codewords, codewords).max())
    tol = _screen_tol(np.einsum("nd,nd->n", vectors, vectors), max_norm, dim)
    lifted = np.ones((min(rows, n), dim + 1), dtype=np.float32)
    for lo in range(0, n, rows):
        block = vectors[lo : lo + rows]
        m = block.shape[0]
        out = idx[lo : lo + m]
        # Estimates as (K, rows), so every reduction runs along contiguous
        # rows; a row settles when only its smallest estimate is at or
        # below the smallest plus tol.
        lifted[:m, :dim] = block
        est = lifted_c @ lifted[:m].T
        near = est <= est.min(axis=0) + tol[lo : lo + m]
        centre, row = np.divmod(np.flatnonzero(near), m)
        out[row] = centre
        rest = np.flatnonzero(np.bincount(row, minlength=m) != 1)
        todo = block[rest]
        if todo.shape[0]:
            dist = _sqdist(todo.T[:, :, None], codewords.T, (todo.shape[0], k))
            out[rest] = np.argmin(dist, axis=1)
    return idx


def _screen_tol(sq_norms: np.ndarray, max_norm: float, dim: int) -> np.ndarray:
    """Float32 settle tolerance tol(x) of _nearest's bound, one per row.

    sq_norms holds each row's float64 |x|^2 and max_norm is max_j |c_j| over
    every centre the row's estimates are compared between. A row where the
    bound does not hold (R >= 2^63, R NaN or (2D + 9) u > 1/16) gets NaN,
    so every comparison with its tol is false: it never settles.
    """
    terms = 2 * dim + 9
    gamma = terms * _F32_ROUNDOFF / (1.0 - terms * _F32_ROUNDOFF)
    reach = np.sqrt(sq_norms) + max_norm
    ok = (reach < 2.0**63) & (terms * _F32_ROUNDOFF <= 1 / 16)
    tol = np.full(reach.shape, np.nan, dtype=np.float32)
    tol[ok] = 1.01 * gamma * reach[ok] ** 2 + 8 * (dim + 3) * _F32_TINY
    return tol


@np.errstate(over="ignore")
def _sqdist(columns: np.ndarray, targets, shape=None) -> np.ndarray:
    """The one distance kernel: squared distances, bit for bit as cdist's.

    columns and targets yield one entry per dimension d = 0..D-1, read once
    in order, and each pair broadcasts to shape. The squared differences
    (col - target)^2 are summed from d = 0 to D-1 into a float64 array of
    that shape, the float operations of cdist's sqeuclidean; like cdist, a
    distance past float64 range is inf, without a warning. The default
    shape, (N,), measures each sample of the (D, N) transposed sample
    matrix against its target: a scalar per dimension (one centre for every
    sample) or an N-array (each sample's own centre); these, and the
    k-means++ init's (rows,) distances of some samples to one centre, read
    one dimension's entries at a time, are the only distances kmeans_fit
    reads. _nearest reads (rows, K) distances of rows to every codeword,
    with (D, rows, 1) columns and K-array targets.
    """
    acc = np.zeros(columns.shape[1] if shape is None else shape)
    diff = np.empty_like(acc)
    for col, target in zip(columns, targets):
        np.subtract(col, target, out=diff)
        diff *= diff
        acc += diff
    return acc


def _as_latents(vectors, dim: int) -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ShapeMismatchError(f"expected vectors of dimension {dim}, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ConfigError("latent vectors must be finite")
    return arr


def quantize_map(latent, cb: Codebook) -> np.ndarray:
    """Nearest-codeword index of each (N, D) row, or of one D-vector, in order.

    Exact ties go to the lowest index.
    """
    return _nearest(_as_latents(latent, cb.dim), cb.codewords.astype(np.float64))


def dequantize(idx, cb: Codebook, out: np.ndarray | None = None) -> np.ndarray:
    """Codeword lookup per symbol; rejects indices outside the codebook.

    The float64 rows are written to out, a (len(idx), D) float64 array,
    when it is given, and returned.
    """
    symbols = index_array("idx", idx)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= cb.size):
        raise SymbolOutOfRangeError(
            f"symbol outside codebook of size {cb.size} (corrupt stream or wrong codebook)"
        )
    # Every index is in range, so "clip" never clips; it lets take write
    # straight into out, where "raise" would stage the rows in a buffer.
    return np.take(cb.codewords.astype(np.float64), symbols, axis=0, out=out, mode="clip")


@np.errstate(over="ignore", invalid="ignore")
def _kmeans_pp(x: np.ndarray, columns: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ centres, drawing what rng.choice(n, p=d2 / total) draws.

    d2 holds each sample's _sqdist distance to its nearest centre so
    far. A draw is numpy's own rng.choice draw for that p, without its
    validation passes: the cumulative sum of p scaled to end at 1, searched
    (side "right") at one rng.random(). With no mass left (d2 all zero) the
    pick is rng.integers(n). Every pick and the stream state after it are
    those of rng.choice.

    Each new centre c costs one float32 GEMV (_estimates): _nearest's
    estimate est(x, c), set against the estimate kept for the sample's
    nearest centre so far. A sample whose new estimate exceeds the float32
    sum of the kept one and its _screen_tol (with max_norm the largest
    sample norm, which bounds every centre's) is proved by _nearest's bound
    to be strictly farther from c, so its d2 stays. Only the other samples
    get a _sqdist distance, read one dimension's entries at a time with no
    copy of their rows, and d2 takes it where it is smaller (np.minimum's
    values), so d2 is bit for bit that of a full pass per centre, at every
    k.
    """
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    pick = int(rng.integers(n))
    centers[0] = x[pick]
    d2 = _sqdist(columns, centers[0])
    if not np.isfinite(d2.sum()):
        raise ConfigError("squared distances between the samples overflow float64")
    # One buffer for every draw: a fresh N-array per draw cost 3x as much
    # (page faults) at N = 65536.
    cdf = np.empty(n)
    low_x = x.astype(np.float32)
    sq_norms = np.einsum("nd,nd->n", x, x)
    tol = _screen_tol(sq_norms, np.sqrt(sq_norms.max()), x.shape[1])
    del sq_norms
    kept = _estimates(low_x, low_x[pick])
    est = np.empty_like(kept)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            np.divide(d2, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        _estimates(low_x, low_x[pick], out=est)
        rows = np.flatnonzero(~(est > kept + tol))
        # One dimension's unsettled entries at a time: no sample-sized copy.
        near = _sqdist((col[rows] for col in columns), centers[j], rows.shape)
        # np.minimum(d2, near) at rows, writing only where near is smaller.
        closer = near < d2[rows]
        rows = rows[closer]
        d2[rows] = near[closer]
        kept[rows] = est[rows]
    return centers


def _estimates(low_x: np.ndarray, low_c: np.ndarray, out=None) -> np.ndarray:
    """_nearest's est of every float32 sample row for one float32 centre.

    Computed as the D-term product -low_x @ low_c plus one rounded add of
    the centre's half squared norm: a GEMV over (N, D + 1) lifted rows runs
    at two thirds of this speed.
    """
    est = np.matmul(low_x, -low_c, out=out)
    est += 0.5 * (low_c @ low_c)
    return est


def kmeans_fit(
    samples, k: int, iters: int, seed: int
) -> tuple[np.ndarray, list[float]]:
    """Lloyd's k-means with k-means++ init and farthest-point reseeding.

    Returns the final centroids and the mean-squared-distortion history: one
    entry after initialization and one after each completed iteration. The
    history is non-increasing by construction. Stops early once assignments
    stabilize.

    The init (_kmeans_pp) draws exactly the centres that k-means++ with
    rng.choice(n, p=d2 / d2.sum()) draws from the same stream. Each
    iteration moves every non-empty centre to the mean of its samples,
    assigns every sample again with _nearest and then reseeds each empty
    cluster, so the centres are those of a full cdist pass each iteration.
    Every distance read (k-means++ weights, distortion, reseed) is
    _sqdist's, bit for bit as cdist's. Samples must be finite, their
    squared distances to the first centre must sum to a finite float64, and
    each cluster's coordinate sums must stay finite (ConfigError otherwise:
    samples near the float64 maximum would give inf centres).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError("samples must be a 2-d (N, D) array")
    n = x.shape[0]
    require_int("k", k, 1)
    require_int("iters", iters, 0)
    require_int("seed", seed, 0)
    if n < k:
        raise InsufficientDataError(f"k-means needs at least {k} samples, got {n}")
    if not np.isfinite(x).all():
        raise ConfigError("samples must be finite")

    # (D, N): each Lloyd's pass reads the samples column by column. A caller
    # that holds its sample as the .T view of a (D, N) block passes no copy.
    columns = np.ascontiguousarray(x.T)
    centers = _kmeans_pp(x, columns, k, np.random.default_rng(seed))
    assign = _nearest(x, centers)
    dist = _sqdist(columns, (c.take(assign) for c in centers.T))
    history = [float(dist.mean())]
    for _ in range(iters):
        prev_assign = assign
        # Each cluster's rows are summed in index order and divided once,
        # the same float operations as a per-cluster x[members].mean(axis=0)
        # (for D >= 2; numpy sums a single column pairwise instead).
        counts = np.bincount(assign, minlength=k)
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        if not np.isfinite(sums).all():
            raise ConfigError("cluster sums of the samples overflow float64")
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        assign = _nearest(x, centers)
        dist = _sqdist(columns, (c.take(assign) for c in centers.T))

        present = np.bincount(assign, minlength=k) > 0
        for j in np.flatnonzero(~present):
            far = int(np.argmax(dist))
            centers[j] = x[far]
            newd = _sqdist(columns, centers[j])
            take = newd < dist
            assign = np.where(take, j, assign)
            dist = np.minimum(dist, newd)
        history.append(float(dist.mean()))
        if np.array_equal(assign, prev_assign):
            break
    return centers, history


def train_codebook(samples, k: int, iters: int, seed: int) -> Codebook:
    """Learn a K x D codebook by k-means on the given latent vectors.

    K is checked against the codebook's 16-bit size field before k-means.
    """
    require_int("k", k, 1, 0xFFFF)
    centers, _ = kmeans_fit(samples, k, iters, seed)
    return Codebook(centers)


def save_codebook(cb: Codebook, path) -> None:
    """Write the CDBK container: 'CDBK' | u16 K | u16 D | u64 hash | K*D f32 LE."""
    fields = (cb.size, cb.dim, cb.version_hash)
    write_container(path, _CDBK_HEADER, _CDBK_MAGIC, fields, [("<f4", cb.codewords)])


def _stored_codebook(k: int, d: int, stored_hash: int, codewords: np.ndarray) -> Codebook:
    cb = Codebook(codewords)
    if cb.version_hash != stored_hash:
        raise FormatError("codebook version hash does not match file contents")
    return cb


def load_codebook(path) -> Codebook:
    """Read a CDBK container; a malformed file raises FormatError."""
    return read_container(
        path, "codebook", _CDBK_HEADER, _CDBK_MAGIC,
        lambda k, d, _: [("<f4", (k, d))],
        _stored_codebook,
    )
