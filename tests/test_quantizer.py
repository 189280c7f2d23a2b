import itertools

import numpy as np
import pytest

from dsc_codec import (
    Codebook,
    FormatError,
    InsufficientDataError,
    SymbolOutOfRangeError,
    dequantize,
    kmeans_fit,
    load_codebook,
    quantize_map,
    save_codebook,
    train_codebook,
)
from dsc_codec.quantizer import _nearest


def codebook(rows) -> Codebook:
    return Codebook(np.asarray(rows, dtype=np.float32))


def test_nearest_exact_match_and_distances():
    cb = codebook(np.eye(8))
    assert quantize_map(np.eye(8)[7], cb).tolist() == [7]
    near_one = codebook([[0.0, 0.0], [1.0, 0.0]])
    assert quantize_map([0.9, 0.0], near_one).tolist() == [1]


def test_nearest_tie_breaks_to_lowest_index():
    # Codewords 2 and 5 are equidistant from the query.
    rows = np.full((6, 2), 100.0)
    rows[2] = [0.0, 0.0]
    rows[5] = [1.0, 0.0]
    cb = codebook(rows)
    assert quantize_map([0.5, 0.0], cb).tolist() == [2]


def test_quantize_map_basics():
    cb = codebook(np.eye(4))
    assert quantize_map(np.empty((0, 4)), cb).size == 0
    assert quantize_map(np.eye(4), cb).tolist() == [0, 1, 2, 3]


def test_quantization_is_a_projection(rng):
    cb = codebook(rng.normal(size=(10, 3)))
    x = rng.normal(size=(50, 3))
    idx = quantize_map(x, cb)
    again = quantize_map(dequantize(idx, cb), cb)
    assert np.array_equal(idx, again)


def test_quantization_argmin_optimality(rng):
    cb = codebook(rng.normal(size=(12, 4)))
    x = rng.normal(size=(64, 4))
    deq = dequantize(quantize_map(x, cb), cb)
    err = np.sum((x - deq) ** 2, axis=1)
    for k in range(cb.size):
        alt = np.sum((x - cb.codewords.astype(np.float64)[k]) ** 2, axis=1)
        assert np.all(err <= alt + 1e-12)


def test_dequantize_lookup_and_range_check():
    cb = codebook([[1.0, 2.0], [3.0, 4.0]])
    assert dequantize([1], cb).tolist() == [[3.0, 4.0]]
    assert dequantize([0, 0, 1], cb).tolist() == [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(SymbolOutOfRangeError):
        dequantize([2], cb)
    with pytest.raises(SymbolOutOfRangeError):
        dequantize([-1], cb)


def test_kmeans_k_equals_n_reaches_zero_distortion(rng):
    samples = rng.normal(size=(6, 3))
    cb = train_codebook(samples, 6, iters=10, seed=0)
    assert sorted(map(tuple, np.round(cb.codewords, 5))) == sorted(
        map(tuple, np.round(samples.astype(np.float32), 5))
    )
    _, history = kmeans_fit(samples, 6, iters=10, seed=0)
    assert history[-1] == pytest.approx(0.0, abs=1e-12)


def brute_force_two_clusters(samples):
    """Enumerate every non-trivial 2-partition; return the minimal distortion."""
    n = len(samples)
    best = np.inf
    best_centroids = None
    for bits in itertools.product([0, 1], repeat=n):
        if len(set(bits)) < 2:
            continue
        groups = [samples[np.array(bits) == g] for g in (0, 1)]
        cents = [g.mean(axis=0) for g in groups]
        cost = sum(np.sum((g - c) ** 2) for g, c in zip(groups, cents)) / n
        if cost < best:
            best, best_centroids = cost, cents
    return best, best_centroids


def test_kmeans_two_cluster_example_matches_brute_force():
    samples = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [9.9, 0.0]])
    oracle_cost, oracle_cents = brute_force_two_clusters(samples)
    centers, history = kmeans_fit(samples, 2, iters=20, seed=1)
    assert history[-1] == pytest.approx(oracle_cost, rel=1e-9)
    got = sorted(map(tuple, np.round(centers, 6)))
    want = sorted(map(tuple, np.round(np.asarray(oracle_cents), 6)))
    assert got == want
    assert want == [(0.05, 0.0), (9.95, 0.0)]


def test_kmeans_distortion_non_increasing_many_seeds():
    for seed in range(20):
        r = np.random.default_rng(seed)
        samples = r.normal(size=(200, 4))
        _, history = kmeans_fit(samples, 8, iters=15, seed=seed)
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))


def test_kmeans_deterministic():
    samples = np.random.default_rng(5).normal(size=(128, 6))
    a = train_codebook(samples, 16, iters=12, seed=9)
    b = train_codebook(samples, 16, iters=12, seed=9)
    assert np.array_equal(a.codewords, b.codewords)
    assert a.version_hash == b.version_hash


def test_kmeans_insufficient_samples():
    with pytest.raises(InsufficientDataError):
        train_codebook(np.zeros((3, 2)), 4, iters=5, seed=0)


def test_kmeans_handles_duplicate_points():
    samples = np.zeros((10, 2))
    samples[5:] = 1.0
    cb = train_codebook(samples, 4, iters=10, seed=3)
    assert np.isfinite(cb.codewords).all()


def _reference_kmeans_fit(samples, k, iters, seed):
    """kmeans_fit with the per-cluster centroid loop; also counts reseeds.

    The vectorised update matches it bit for bit when D >= 2 (numpy sums a
    single column pairwise in mean, so D = 1 is not compared).
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
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
    reseeds = 0
    for _ in range(iters):
        prev_assign = assign
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
        assign, dist = _nearest(x, centers)
        present = np.bincount(assign, minlength=k) > 0
        for j in np.flatnonzero(~present):
            reseeds += 1
            far = int(np.argmax(dist))
            centers[j] = x[far]
            newd = np.sum((x - centers[j]) ** 2, axis=1)
            take = newd < dist
            assign = np.where(take, j, assign)
            dist = np.minimum(dist, newd)
        history.append(float(dist.mean()))
        if np.array_equal(assign, prev_assign):
            break
    return centers, history, reseeds


@pytest.mark.parametrize(
    "n, d, k, duplicated",
    [(600, 4, 4, False), (600, 16, 16, False), (2000, 16, 64, False), (3000, 3, 256, False),
     (40, 3, 9, True)],
)
def test_kmeans_matches_per_cluster_loop_reference(n, d, k, duplicated):
    r = np.random.default_rng(n + d + k)
    samples = r.normal(size=(n, d)) * r.uniform(0.5, 3.0, size=d)
    if duplicated:
        # Eight distinct points, each repeated five times: k-means++ runs out
        # of distance mass and picks duplicates, which leaves empty clusters.
        samples = np.repeat(samples[:8], 5, axis=0)
    centers, history = kmeans_fit(samples, k, iters=25, seed=k)
    ref_centers, ref_history, reseeds = _reference_kmeans_fit(samples, k, 25, k)
    assert np.array_equal(centers, ref_centers)
    assert history == ref_history
    assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))
    assert (reseeds > 0) == duplicated


def test_codebook_hash_tracks_contents():
    a = codebook([[1.0, 2.0]])
    b = codebook([[1.0, 2.0]])
    c = codebook([[1.0, 2.5]])
    assert a.version_hash == b.version_hash
    assert a.version_hash != c.version_hash


def test_codebook_file_roundtrip_and_corruption(tmp_path, rng):
    cb = codebook(rng.normal(size=(16, 8)))
    path = tmp_path / "book.cdbk"
    save_codebook(cb, path)
    loaded = load_codebook(path)
    assert np.array_equal(loaded.codewords, cb.codewords)
    assert loaded.version_hash == cb.version_hash

    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a codeword byte; stored hash no longer matches
    bad = tmp_path / "bad.cdbk"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_codebook(bad)
