"""Vector quantization: codebook learning, assignment, dequantization.

Codewords live in the encoder's embedding space. Assignment is by squared
Euclidean distance with ties broken toward the LOWEST index, fixed so that
bitstreams are reproducible across platforms. The codebook is learned with
k-means++ initialization and Lloyd iterations; an empty cluster is reseeded
to the sample currently farthest from its assigned centroid, which keeps the
distortion sequence non-increasing and avoids dead codewords that would
waste index entropy.
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
)

_CDBK_MAGIC = b"CDBK"
_CDBK_HEADER = struct.Struct("<4sHHQ")
_ASSIGN_CHUNK = 32768


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
        arr = np.array(self.codewords, dtype=np.float32, order="C")
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ConfigError(f"codebook must be a K x D matrix with K,D >= 1, got {arr.shape}")
        if arr.shape[0] > 0xFFFF or arr.shape[1] > 0xFFFF:
            raise ConfigError("codebook dimensions must fit unsigned 16-bit fields")
        if not np.isfinite(arr).all():
            raise ConfigError("codebook entries must be finite")
        arr.flags.writeable = False
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


def _nearest(vectors: np.ndarray, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index argmin assignment and squared distance, chunked for memory."""
    n = vectors.shape[0]
    idx = np.empty(n, dtype=np.int32)
    sqdist = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _ASSIGN_CHUNK):
        hi = min(lo + _ASSIGN_CHUNK, n)
        d2 = cdist(vectors[lo:hi], codewords, metric="sqeuclidean")
        block = np.argmin(d2, axis=1)
        idx[lo:hi] = block
        sqdist[lo:hi] = d2[np.arange(hi - lo), block]
    return idx, sqdist


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
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError("samples must be a 2-d (N, D) array")
    n = x.shape[0]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if iters < 0:
        raise ConfigError(f"iters must be >= 0, got {iters}")
    if n < k:
        raise InsufficientDataError(f"k-means needs at least {k} samples, got {n}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[int(rng.integers(n))]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))

    assign, dist = _nearest(x, centers)
    history = [float(dist.mean())]
    columns = np.ascontiguousarray(x.T)
    for _ in range(iters):
        prev_assign = assign
        # Each cluster's rows are summed in index order and divided once,
        # the same float operations as a per-cluster x[members].mean(axis=0)
        # (for D >= 2; numpy sums a single column pairwise instead).
        counts = np.bincount(assign, minlength=k)
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        assign, dist = _nearest(x, centers)
        present = np.bincount(assign, minlength=k) > 0
        for j in np.flatnonzero(~present):
            far = int(np.argmax(dist))
            centers[j] = x[far]
            newd = np.sum((x - centers[j]) ** 2, axis=1)
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
