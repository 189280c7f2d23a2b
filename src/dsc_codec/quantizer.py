"""Vector quantization: codebook learning, assignment, dequantization.

Codewords live in the encoder's embedding space. Assignment is by squared
Euclidean distance with ties broken toward the LOWEST index, fixed so that
bitstreams are reproducible across platforms. The codebook is learned with
k-means++ initialization and Lloyd iterations; an empty cluster is reseeded
to the sample currently farthest from its assigned centroid, which keeps the
distortion sequence non-increasing and avoids dead codewords that would
waste index entropy.

Every squared distance is computed in one float order: the sum of
(x_d - c_d)^2 over d = 0..D-1, which is scipy's ``cdist`` sqeuclidean, and
every assignment is the lowest-index argmin of those numbers. Assignment
(``_nearest``, behind ``quantize_map`` and every Lloyd iteration) returns
indices only and runs in blocks of about 2^18 distances (2 MB), so a
block's row count shrinks as K grows; a row's result does not depend on the
block it is in. From K = 32 up, a block is first screened with one BLAS
product that estimates every distance; a row is assigned from the estimate
only when a rounding bound proves that the estimate picks cdist's answer,
and every other row (ties, near-ties, non-finite values) is decided on its
``cdist`` row. Below K = 32 every row is decided on its ``cdist`` row. BLAS
never decides an assignment that the bound has not proved, so the result
is cdist's on every platform.
``_column_sqdist`` gives cdist's numbers for a distance to one known centre
per sample, reading the samples column by column. Every distance Lloyd's
loop reads comes from it: the k-means++ init, the distortion after each
assignment and the reseed pass.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    ConfigError,
    FormatError,
    InsufficientDataError,
    ShapeMismatchError,
    SymbolOutOfRangeError,
    frozen_array,
    require_int,
)

_CDBK_MAGIC = b"CDBK"
_CDBK_HEADER = struct.Struct("<4sHHQ")
# Distances per cdist block: 2^18 float64 entries (2 MB) stay cache-sized.
_BLOCK_DISTANCES = 1 << 18
# From this many codewords up, assignment screens each block with one GEMM
# estimate before cdist (see _nearest). At D = 16 and 2^18 distances per
# block (65536 samples, one OpenBLAS thread on a 2-core AVX-512 Xeon) one
# screened pass is about even with cdist at K = 32-40 and ahead from 48
# (34 ms against 41 ms at K = 48), and 1.5x as long as cdist's at K = 16.
# At least 2, so that a runner-up estimate exists.
_SCREEN_MIN_K = 32
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074


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


def _nearest(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Lowest-index argmin of cdist's squared distances, as int32 indices.

    Rows go in blocks of about _BLOCK_DISTANCES distances; a row's result
    does not depend on its block. With K at or above _SCREEN_MIN_K a block
    is first screened with one GEMM: for a row x,

        est_j = |c_j|^2 / 2 - x . c_j = (|x - c_j|^2 - |x|^2) / 2,

    computed as x @ (-C^T) plus the precomputed half squared norms. The row
    is settled when the runner-up estimate exceeds the smallest one by more
    than 2 eps(x), with (|.| the Euclidean norm, u = 2^-53, eta = 2^-1074)

        eps(x) = 1.01 gamma_{D+4} (|x| + max_j |c_j|)^2 + 2 (D+4) eta,
        gamma_n = n u / (1 - n u).

    Why that proves the estimate picks cdist's answer. Let a = |x|,
    b = |c_j| and d_j = |x - c_j|^2, and write g = 1 + gamma_{D+2}. With
    gradual underflow (IEEE 754's default; not under flush-to-zero), a
    float product or square is off by a relative u plus an absolute eta/2
    at most, and a sum or difference only by a relative u. So, in any
    summation order, with or without FMA (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3):
      - the dot product is within gamma_D ab + g (D/2) eta, half the
        squared norm within gamma_D b^2/2 + g (D/4) eta + eta/2, and est_j,
        one rounded add later, within gamma_{D+1} (ab + b^2/2) +
        g (3D/4 + 1/2) eta of its real value (d_j - a^2)/2;
      - cdist's entry (D differences, D squares, D-1 adds in a row) is
        within gamma_{D+2} d_j + g (D/2) eta of d_j, and d_j <= (a + b)^2.
    As ab + b^2/2 <= (a + b)^2/2, twice the first error plus the second is
    below 2 (gamma_{D+2} (a + b)^2 + (D + 1) eta) per codeword. So if
    est_j - est_i > 2 (gamma_{D+2} (a + max_j |c_j|)^2 + (D + 1) eta), then
    cdist's entry for j exceeds its entry for i: the smaller estimate is
    the strictly smaller cdist entry. eps(x) adds a margin (gamma_{D+4}, the
    factor 1.01, and 2 (D+4) eta against (D+1) eta) that covers the
    rounding of |x|, of max_j |c_j|, of eps itself and of the computed gap.

    An overflow anywhere in a row's estimates needs a |x_d c_jd| or |c_j|^2
    near the float64 maximum, which makes (|x| + max_j |c_j|)^2 and so eps
    inf; a NaN fails every comparison. Either way the row is not settled.

    BLAS never decides an assignment that the bound has not proved. Every
    other row (ties, near-ties, a NaN or inf estimate or bound) and every
    row when K < _SCREEN_MIN_K gets the lowest-index argmin of its cdist
    row, so the indices are those of a cdist pass whichever path a row
    takes. No distance is returned; a caller that needs one measures it
    with _column_sqdist.
    """
    n, dim = vectors.shape
    k = codewords.shape[0]
    idx = np.empty(n, dtype=np.int32)
    screened = k >= _SCREEN_MIN_K
    if screened:
        neg_t = -codewords.T
        sq_norms = np.einsum("kd,kd->k", codewords, codewords)
        half_sq = 0.5 * sq_norms
        terms = dim + 4
        gamma = terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)
        reach = np.sqrt(np.einsum("nd,nd->n", vectors, vectors)) + np.sqrt(sq_norms.max())
        tol = 2.0 * (1.01 * gamma * reach**2 + 2 * terms * _SUBNORMAL)
    rows = max(1, _BLOCK_DISTANCES // k)
    for lo in range(0, n, rows):
        block = vectors[lo : lo + rows]
        out = slice(lo, lo + block.shape[0])
        rest = slice(None)
        if screened:
            est = block @ neg_t
            est += half_sq
            at = np.arange(block.shape[0])
            best = np.argmin(est, axis=1)
            low = est[at, best]
            est[at, best] = np.inf
            settled = est[at, np.argmin(est, axis=1)] - low > tol[out]
            idx[out] = best
            rest = np.flatnonzero(~settled)
        todo = block[rest]
        if todo.shape[0]:
            idx[out][rest] = np.argmin(cdist(todo, codewords, metric="sqeuclidean"), axis=1)
    return idx


def _column_sqdist(columns: np.ndarray, targets) -> np.ndarray:
    """Squared distance of each sample to its target, bit for bit as cdist.

    columns is the (D, N) transposed sample matrix and targets yields one
    entry per dimension, read once in order: a scalar (one centre for every
    sample) or an N-array (each sample's own centre). The squared
    differences are summed from d = 0 to D-1, the float operations of
    cdist's sqeuclidean. It is the only source of the distances kmeans_fit
    reads.
    """
    acc = np.zeros(columns.shape[1])
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


def dequantize(idx, cb: Codebook) -> np.ndarray:
    """Codeword lookup per symbol; rejects indices outside the codebook."""
    symbols = np.asarray(idx, dtype=np.int64)
    if symbols.ndim != 1:
        raise ShapeMismatchError("index map must be 1-d")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= cb.size):
        raise SymbolOutOfRangeError(
            f"symbol outside codebook of size {cb.size} (corrupt stream or wrong codebook)"
        )
    return cb.codewords.astype(np.float64)[symbols]


def kmeans_fit(
    samples, k: int, iters: int, seed: int
) -> tuple[np.ndarray, list[float]]:
    """Lloyd's k-means with k-means++ init and farthest-point reseeding.

    Returns the final centroids and the mean-squared-distortion history: one
    entry after initialization and one after each completed iteration. The
    history is non-increasing by construction. Stops early once assignments
    stabilize.

    Each iteration moves every non-empty centre to the mean of its samples,
    assigns every sample again with _nearest and then reseeds each empty
    cluster, so the centres are those of a full cdist pass each iteration.
    Every distance read (k-means++ weights, distortion, reseed) is
    _column_sqdist's, bit for bit as cdist's. Samples must be finite.
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

    columns = np.ascontiguousarray(x.T)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[int(rng.integers(n))]
    d2 = _column_sqdist(columns, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        d2 = np.minimum(d2, _column_sqdist(columns, centers[j]))

    assign = _nearest(x, centers)
    dist = _column_sqdist(columns, (c.take(assign) for c in centers.T))
    history = [float(dist.mean())]
    for _ in range(iters):
        prev_assign = assign
        # Each cluster's rows are summed in index order and divided once,
        # the same float operations as a per-cluster x[members].mean(axis=0)
        # (for D >= 2; numpy sums a single column pairwise instead).
        counts = np.bincount(assign, minlength=k)
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        assign = _nearest(x, centers)
        dist = _column_sqdist(columns, (c.take(assign) for c in centers.T))

        present = np.bincount(assign, minlength=k) > 0
        for j in np.flatnonzero(~present):
            far = int(np.argmax(dist))
            centers[j] = x[far]
            newd = _column_sqdist(columns, centers[j])
            take = newd < dist
            assign = np.where(take, j, assign)
            dist = np.minimum(dist, newd)
        history.append(float(dist.mean()))
        if np.array_equal(assign, prev_assign):
            break
    return centers, history


def train_codebook(samples, k: int, iters: int, seed: int) -> Codebook:
    """Learn a K x D codebook by k-means on the given latent vectors."""
    centers, _ = kmeans_fit(samples, k, iters, seed)
    return Codebook(centers)


def save_codebook(cb: Codebook, path) -> None:
    """Write the CDBK container: 'CDBK' | u16 K | u16 D | u64 hash | K*D f32 LE."""
    with open(path, "wb") as fh:
        fh.write(_CDBK_HEADER.pack(_CDBK_MAGIC, cb.size, cb.dim, cb.version_hash))
        fh.write(cb.codewords.astype("<f4").tobytes())


def load_codebook(path) -> Codebook:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _CDBK_HEADER.size:
        raise FormatError("codebook file too short for header")
    magic, k, d, stored_hash = _CDBK_HEADER.unpack_from(data, 0)
    if magic != _CDBK_MAGIC:
        raise FormatError(f"bad codebook magic {magic!r}")
    expected = _CDBK_HEADER.size + 4 * k * d
    if len(data) != expected:
        raise FormatError(f"codebook file length {len(data)} != expected {expected}")
    codewords = np.frombuffer(data, dtype="<f4", offset=_CDBK_HEADER.size).reshape(k, d)
    cb = Codebook(codewords)
    if cb.version_hash != stored_hash:
        raise FormatError("codebook version hash does not match file contents")
    return cb
