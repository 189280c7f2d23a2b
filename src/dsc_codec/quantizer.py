"""Vector quantization: codebook learning, assignment, dequantization.

Codewords live in the encoder's embedding space. Assignment is by squared
Euclidean distance with ties broken toward the LOWEST index, fixed so that
bitstreams are reproducible across platforms. The codebook is learned with
k-means++ initialization and Lloyd iterations; an empty cluster is reseeded
to the sample currently farthest from its assigned centroid, which keeps the
distortion sequence non-increasing and avoids dead codewords that would
waste index entropy.

Every squared distance is computed in one float order: the sum of
(x_d - c_d)^2 over d = 0..D-1, which is scipy's ``cdist`` sqeuclidean.
Assignment runs ``cdist`` in blocks of about 2^18 distances (2 MB), so a
block's row count shrinks as K grows; a row's values do not depend on the
block it is in. ``_column_sqdist`` gives the same numbers for a distance to
one known centre per sample, reading the samples column by column; the
k-means++ init, the reseed pass and Lloyd's per-sample distance use it.
Lloyd's loop keeps Hamerly's bounds: a lower bound on each sample's
distance to every other centre, and half of each centre's distance to its
nearest other centre. A sample whose exact distance is below the larger of
the two, by a slack of 1e-9 of the data's diameter, keeps its centre
without a row of K distances. Every other sample gets its full row and the
lowest-index argmin, so centres, history and codebook hash are the same as
with a full assignment pass each iteration.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

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
# A sample keeps its centre without a full row only when its distance is
# below the Hamerly bound by this fraction of the data's diameter, which is
# far above the rounding of any distance, move or bound.
_BOUND_SLACK = 1e-9


def codebook_hash(codewords: np.ndarray) -> int:
    """64-bit digest of (K, D, little-endian f32 entries)."""
    arr = np.ascontiguousarray(codewords, dtype="<f4")
    k, d = arr.shape
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<HH", k, d))
    h.update(arr.tobytes())
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class Codebook:
    """Immutable K x D codeword matrix with a content-derived version hash."""

    codewords: np.ndarray

    def __post_init__(self) -> None:
        arr = frozen_array("codebook", self.codewords, np.float32, (None, None))
        if arr.shape[0] > 0xFFFF or arr.shape[1] > 0xFFFF:
            raise ConfigError("codebook dimensions must fit unsigned 16-bit fields")
        object.__setattr__(self, "codewords", arr)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]

    @property
    def version_hash(self) -> int:
        return codebook_hash(self.codewords)


def _blocks(vectors: np.ndarray, codewords: np.ndarray):
    """(row slice, squared cdist block) over vectors, about _BLOCK_DISTANCES each."""
    rows = max(1, _BLOCK_DISTANCES // codewords.shape[0])
    for lo in range(0, vectors.shape[0], rows):
        block = slice(lo, lo + rows)
        yield block, cdist(vectors[block], codewords, metric="sqeuclidean")


def _nearest(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index argmin assignment and squared distance.

    Rows go through cdist in blocks of about 2^18 distances, so a block
    stays cache-sized whatever K is; the result does not depend on the block
    size.
    """
    n = vectors.shape[0]
    idx = np.empty(n, dtype=np.int32)
    sqdist = np.empty(n, dtype=np.float64)
    for rows, d2 in _blocks(vectors, codewords):
        best = np.argmin(d2, axis=1)
        idx[rows] = best
        sqdist[rows] = d2[np.arange(best.size), best]
    return idx, sqdist


def _nearest_two(
    vectors: np.ndarray, codewords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_nearest plus each row's distance (not squared) to its runner-up.

    The runner-up is the smallest entry of the row other than the chosen
    one, so it is 0 under a tie and inf when K = 1. It is found with a
    second argmin, which numpy runs faster than min on short rows.
    """
    n = vectors.shape[0]
    idx = np.empty(n, dtype=np.intp)
    sqdist = np.empty(n, dtype=np.float64)
    second = np.empty(n, dtype=np.float64)
    for rows, d2 in _blocks(vectors, codewords):
        at = np.arange(d2.shape[0])
        best = np.argmin(d2, axis=1)
        idx[rows] = best
        sqdist[rows] = d2[at, best]
        d2[at, best] = np.inf
        second[rows] = d2[at, np.argmin(d2, axis=1)]
    return idx, sqdist, np.sqrt(second)


def _column_sqdist(columns: np.ndarray, targets) -> np.ndarray:
    """Squared distance of each sample to its target, bit for bit as cdist.

    columns is the (D, N) transposed sample matrix and targets has one entry
    per dimension: a scalar (one centre for every sample) or an N-array (each
    sample's own centre). The squared differences are summed from d = 0 to
    D-1, the float operations of cdist's sqeuclidean.
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
    idx, _ = _nearest(_as_latents(latent, cb.dim), cb.codewords.astype(np.float64))
    return idx


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

    Each iteration computes every sample's exact distance to its centre
    with _column_sqdist. A sample keeps its centre without a full cdist row
    when that distance is below one of two Hamerly bounds, less a slack:
    its lower bound, which starts as the distance to its runner-up centre
    and loses the largest centre move each iteration, or half the distance
    from its centre to the nearest other centre. Every other sample gets a
    full row, so ties and near-ties still go through argmin's lowest-index
    rule. A reseed resets the lower bounds to 0. Besides the (D, N) copy of
    the samples, the bounds keep O(N + K) numbers and a (D, N) gather of
    centre coordinates; nothing is N x K.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError("samples must be a 2-d (N, D) array")
    n = x.shape[0]
    require_int("k", k, 1)
    require_int("iters", iters, 0)
    if n < k:
        raise InsufficientDataError(f"k-means needs at least {k} samples, got {n}")

    columns = np.ascontiguousarray(x.T)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[int(rng.integers(n))]
    d2 = _column_sqdist(columns, centers[0])
    # Samples and centroids lie within sqrt(d2.max()) of the first pick, so
    # no distance, centre move or bound exceeds twice that.
    slack = _BOUND_SLACK * 2.0 * float(np.sqrt(d2.max()))
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        d2 = np.minimum(d2, _column_sqdist(columns, centers[j]))

    assign, dist, lower = _nearest_two(x, centers)
    history = [float(dist.mean())]
    for _ in range(iters):
        prev_assign = assign
        # Each cluster's rows are summed in index order and divided once,
        # the same float operations as a per-cluster x[members].mean(axis=0)
        # (for D >= 2; numpy sums a single column pairwise instead).
        counts = np.bincount(assign, minlength=k)
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        filled = counts > 0
        moved = sums[filled] / counts[filled, None]
        lower -= np.sqrt(np.max(np.sum((moved - centers[filled]) ** 2, axis=1)))
        centers[filled] = moved
        # A centre's runner-up among the centres is its nearest other centre
        # (it is 0 from itself); a sample nearer than half that to its own
        # centre is nearer to it than to any other.
        _, _, half_gap = _nearest_two(centers, centers)
        half_gap *= 0.5

        dist = _column_sqdist(columns, centers.T.take(assign, axis=1))
        bound = np.maximum(lower, half_gap[assign])
        bound -= slack
        rows = np.flatnonzero(np.sqrt(dist) >= bound)
        assign = assign.copy()
        assign[rows], dist[rows], lower[rows] = _nearest_two(x[rows], centers)

        present = np.bincount(assign, minlength=k) > 0
        for j in np.flatnonzero(~present):
            far = int(np.argmax(dist))
            centers[j] = x[far]
            newd = _column_sqdist(columns, centers[j])
            take = newd < dist
            assign = np.where(take, j, assign)
            dist = np.minimum(dist, newd)
            # The reseeded centre can sit anywhere: no lower bound survives.
            lower[:] = 0.0
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
