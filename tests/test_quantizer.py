import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from dsc_codec import (
    Codebook,
    ConfigError,
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
from dsc_codec import quantizer
from dsc_codec.quantizer import _nearest, _sqdist


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("fit", [kmeans_fit, train_codebook])
def test_kmeans_rejects_non_finite_samples(fit, bad):
    samples = np.random.default_rng(50).normal(size=(50, 4))
    samples[17, 2] = bad
    with pytest.raises(ConfigError, match="must be finite"):
        fit(samples, 4, 5, 0)


@pytest.mark.parametrize("k", [1, 2])
def test_kmeans_rejects_cluster_sums_past_float64_range(k):
    # Every distance is 0 between these equal samples, but a cluster's
    # coordinate sum overflows: its centre would be inf.
    with pytest.raises(ConfigError, match="cluster sums"):
        kmeans_fit(np.full((10, 2), 1.7e308), k, 3, 0)


def test_kmeans_handles_duplicate_points():
    samples = np.zeros((10, 2))
    samples[5:] = 1.0
    cb = train_codebook(samples, 4, iters=10, seed=3)
    assert np.isfinite(cb.codewords).all()


def _reference_kmeans_fit(samples, k, iters, seed):
    """kmeans_fit with the per-cluster centroid loop; also counts reseeds.

    Indices and distances come from plain cdist (_reference_nearest and
    _reference_sqdist), not from _nearest or _sqdist. The vectorised update matches it bit
    for bit when D >= 2 (numpy sums a single column pairwise in mean, so
    D = 1 is not compared).
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[int(rng.integers(n))]
    d2 = _reference_sqdist(x, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        d2 = np.minimum(d2, _reference_sqdist(x, centers[j]))

    assign, dist = _reference_nearest(x, centers)
    history = [float(dist.mean())]
    reseeds = 0
    for _ in range(iters):
        prev_assign = assign
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
        assign, dist = _reference_nearest(x, centers)
        present = np.bincount(assign, minlength=k) > 0
        for j in np.flatnonzero(~present):
            reseeds += 1
            far = int(np.argmax(dist))
            centers[j] = x[far]
            newd = _reference_sqdist(x, centers[j])
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
     (40, 3, 9, True), (80, 3, 40, True), (400, 3, 80, True)],
)
def test_kmeans_matches_per_cluster_loop_reference(n, d, k, duplicated):
    r = np.random.default_rng(n + d + k)
    samples = r.normal(size=(n, d)) * r.uniform(0.5, 3.0, size=d)
    if duplicated:
        # Eight distinct points, each repeated n / 8 times: k-means++ runs
        # out of distance mass and picks duplicates, which leaves empty
        # clusters; k = 80 also runs out inside the screened init.
        samples = np.repeat(samples[:8], n // 8, axis=0)
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


def test_codebook_file_layout_matches_an_independent_packer(tmp_path):
    # 'CDBK' | u16 K | u16 D | u64 hash, then the K*D codewords as f32 LE in
    # codeword, coordinate order. The hash is the 8-byte little-endian
    # BLAKE2b digest of u16 K | u16 D | the same f32 LE codewords.
    cb = codebook((np.arange(15.0) - 4).reshape(3, 5) / 8)
    body = struct.pack("<15f", *[cb.codewords[k, j] for k in range(3) for j in range(5)])
    digest = hashlib.blake2b(struct.pack("<HH", 3, 5) + body, digest_size=8).digest()
    expected = struct.pack("<4sHHQ", b"CDBK", 3, 5, int.from_bytes(digest, "little")) + body
    path = tmp_path / "book.cdbk"
    save_codebook(cb, path)
    assert path.read_bytes() == expected
    loaded = load_codebook(path)
    assert np.array_equal(loaded.codewords, cb.codewords)
    assert loaded.version_hash == cb.version_hash


@pytest.mark.parametrize(
    "k, d, body, match",
    [
        (1, 2, [1.0, float("nan")], "non-finite"),
        (2, 1, [float("-inf"), 1.0], "non-finite"),
        (0, 4, [], "shape"),
    ],
)
def test_codebook_file_with_an_invalid_codebook_raises_format_error(tmp_path, k, d, body, match):
    # 'CDBK' | u16 K | u16 D | u64 hash | K*D f32 LE: the container parses, but
    # the codewords it holds are not a valid Codebook.
    path = tmp_path / "bad.cdbk"
    path.write_bytes(struct.pack("<4sHHQ", b"CDBK", k, d, 0) + struct.pack(f"<{len(body)}f", *body))
    with pytest.raises(FormatError, match=match) as info:
        load_codebook(path)
    assert isinstance(info.value.__cause__, ConfigError)


@st.composite
def kmeans_inputs(draw):
    """(samples, k, iters, seed): float, integer-grid or duplicated samples, D >= 2."""
    n = draw(st.integers(1, 48))
    d = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["float", "grid", "duplicated"]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "float":
        samples = r.normal(size=(n, d)) * r.uniform(0.01, 100.0, size=d)
    elif kind == "grid":
        # Small integers: many samples sit exactly on ties between centres.
        samples = r.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        # Few distinct points: k-means++ runs out of mass and reseeds follow.
        distinct = r.normal(size=(draw(st.integers(1, 6)), d))
        samples = distinct[r.integers(0, distinct.shape[0], size=n)]
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return samples, k, draw(st.integers(0, 30)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(kmeans_inputs())
def test_kmeans_matches_per_cluster_loop_reference_on_drawn_inputs(case):
    samples, k, iters, seed = case
    centers, history = kmeans_fit(samples, k, iters, seed)
    ref_centers, ref_history, _ = _reference_kmeans_fit(samples, k, iters, seed)
    assert np.array_equal(centers, ref_centers)
    assert history == ref_history


@pytest.mark.parametrize("k", [1, 3, 64])
def test_nearest_does_not_depend_on_block_size(monkeypatch, k):
    r = np.random.default_rng(k)
    x = r.normal(size=(300, 5))
    centers = r.normal(size=(k, 5))
    centers[-1] = centers[0]  # an exact tie between two codewords
    want = _nearest(x, centers)
    monkeypatch.setattr(quantizer, "_BLOCK_DISTANCES", 5)
    assert np.array_equal(_nearest(x, centers), want)


def test_kmeans_fit_at_small_k_peaks_no_higher_than_at_larger_k():
    # _nearest's blocks are sized by the larger of K and the lifted width
    # D + 1, so at K < D + 1 the float32 lifted rows stay within the block
    # budget too, and the fit's traced peak does not rise as K falls.
    block = np.random.default_rng(16).normal(size=(16, 1 << 16))

    def peak(k: int) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kmeans_fit(block.T, k, 25, 1)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(4) <= peak(64) + 0.1 * 2**20


def _reference_sqdist(vectors, center):
    """Plain cdist squared distance of every row to one centre."""
    return cdist(vectors, center[None], metric="sqeuclidean")[:, 0]


def _reference_nearest(vectors, codewords):
    """Plain cdist and lowest-index argmin: index and squared distance."""
    d2 = cdist(vectors, codewords, metric="sqeuclidean")
    best = np.argmin(d2, axis=1)
    return best, d2[np.arange(d2.shape[0]), best]


def _assert_matches_reference(vectors, codewords):
    idx, _ = _reference_nearest(vectors, codewords)
    got = _nearest(vectors, codewords)
    assert got.dtype == np.int32
    assert np.array_equal(got, idx)
    if np.abs(codewords).max() < 1e38:  # a Codebook stores float32
        cb = Codebook(codewords)
        want_idx = _reference_nearest(vectors, cb.codewords.astype(np.float64))[0]
        assert np.array_equal(quantize_map(vectors, cb), want_idx)


def _twins(codewords, r):
    """Replace a random half of the codewords by their predecessor moved 1 ulp."""
    twins = np.flatnonzero(r.random(codewords.shape[0]) < 0.5)
    twins = twins[twins > 0]
    codewords[twins] = np.nextafter(codewords[twins - 1], np.inf)
    return codewords


@st.composite
def assignment_cases(draw):
    """(vectors, codewords) as float64 arrays.

    Kinds: Gaussian codewords with samples near them, halfway between two or
    far outside the codebook; integer-grid data with exact ties; codewords
    1 ulp from a neighbour; and duplicated codewords. Scales reach into subnormal products (1e-160,
    1e-300) and near overflow of the squared norms (1e150), and around the
    float32 screen's limits: estimates past float32 range (1e19, 2e19) and
    float32 subnormal products or inputs (1e-20, 1e-40). K is drawn from 1
    up, so the screen is checked on the smallest codebooks too.
    """
    edges = st.sampled_from([1, 2, 3, 4, 5, 12])
    k = draw(edges | st.integers(1, 100))
    d = draw(st.integers(1, 20))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["gauss", "midpoint", "grid", "ulp", "duplicated", "far"]))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-300, 1e150, 1e19, 2e19, 1e-20, 1e-40]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        codewords = r.integers(-2, 3, size=(k, d)) * scale
        vectors = r.integers(-4, 5, size=(n, d)) * (scale / 2)
    else:
        codewords = r.normal(size=(k, d)) * scale
        pick = r.integers(0, k, size=(2, n))
        if kind == "midpoint":
            vectors = (codewords[pick[0]] + codewords[pick[1]]) / 2
        else:
            vectors = codewords[pick[0]]
        spread = scale * 10.0 ** r.uniform(-12, 0.5, size=(n, 1))
        if kind == "far":
            # Up to 1e40 times the codebook's scale: dot products that
            # overflow float32 next to squared norms that do not.
            spread = scale * 10.0 ** r.uniform(0, 40, size=(n, 1))
        vectors = vectors + r.normal(size=(n, d)) * spread
        if kind == "ulp":
            codewords = _twins(codewords, r)
        elif kind == "duplicated":
            codewords = codewords[r.integers(0, max(1, k // 3), size=k)]
    return vectors, codewords


@settings(max_examples=400, deadline=None)
@given(assignment_cases())
def test_assignment_matches_cdist_reference_bit_for_bit(case):
    vectors, codewords = case
    _assert_matches_reference(vectors, codewords)


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300, 1e150, 1e19, 2e19, 1e-20, 1e-40])
def test_screen_near_ties_match_cdist_at_every_scale(scale):
    # Samples halfway between two codewords, nudged by 1e-12 to 1, at small
    # and large K: the screen must hand every near-tie to cdist.
    r = np.random.default_rng(29)
    for k in (2, 3, 4, 128):
        codewords = r.normal(size=(k, 16)) * scale
        pick = r.integers(0, k, size=(2, 3000))
        halfway = (codewords[pick[0]] + codewords[pick[1]]) / 2
        nudge = r.normal(size=(3000, 16)) * (scale * 10.0 ** r.uniform(-12, 0, size=(3000, 1)))
        _assert_matches_reference(halfway + nudge, codewords)


@pytest.mark.parametrize("scale", [1e-19, 1e-20, 1e-21])
def test_screen_near_ties_match_cdist_where_estimates_are_float32_subnormal(scale):
    # Dot products of about 1e-40: float32 rounds them on the subnormal
    # grid, so only the bound's absolute (eta) term covers their error.
    r = np.random.default_rng(37)
    for d in (1, 5, 9, 16):
        codewords = r.normal(size=(8, d)) * scale
        pick = r.integers(0, 8, size=(2, 4000))
        halfway = (codewords[pick[0]] + codewords[pick[1]]) / 2
        nudge = r.normal(size=(4000, d)) * (scale * 10.0 ** r.uniform(-8, -2, size=(4000, 1)))
        _assert_matches_reference(halfway + nudge, codewords)


def test_screen_never_settles_a_row_whose_estimates_overflow():
    # x' . c'_j overflows float32 for the three codewords along x, so their
    # estimates are -inf (or inf) while the fourth is 0. In float64 all four
    # distances round to the same number: cdist says 0, and the screen must
    # not settle on the one finite estimate.
    codewords = np.zeros((4, 3))
    codewords[:3, 0] = 10.0
    vectors = np.array([[1e38, 0.0, 0.0], [-1e38, 0.0, 0.0], [3e38, 1.0, 0.0]])
    _assert_matches_reference(vectors, codewords)
    assert _nearest(vectors, codewords).tolist() == [0, 0, 0]


def test_screen_matches_cdist_next_to_ulp_twin_codewords():
    # Each sample sits near one codeword, which often has a twin 1 ulp away:
    # the screen must hand those rows to cdist rather than pick a twin.
    r = np.random.default_rng(31)
    k = 8
    codewords = _twins(r.normal(size=(k, 16)), r)
    vectors = codewords[r.integers(0, k, size=4000)] + r.normal(size=(4000, 16)) * 0.05
    _assert_matches_reference(vectors, codewords)


def _count_sqdist_rows(monkeypatch, ndim) -> list[int]:
    # Rows per _sqdist call whose columns have ndim dimensions: 3 for the
    # rows _nearest measures against every codeword, 2 for the samples
    # kmeans_fit measures against one centre each. The init passes some
    # samples' columns one dimension at a time, with their count in shape.
    rows = []
    kernel = quantizer._sqdist

    def counting(columns, targets, shape=None):
        if not isinstance(columns, np.ndarray):
            if ndim == 2:
                rows.append(shape[0])
        elif columns.ndim == ndim:
            rows.append(columns.shape[1])
        return kernel(columns, targets, shape)

    monkeypatch.setattr(quantizer, "_sqdist", counting)
    return rows


def _count_cdist_rows(monkeypatch) -> list[int]:
    return _count_sqdist_rows(monkeypatch, 3)


def test_screen_settles_almost_every_row_at_256_codewords(monkeypatch):
    r = np.random.default_rng(4096)
    x = r.normal(size=(4096, 16))
    codewords = r.normal(size=(256, 16))
    rows = _count_cdist_rows(monkeypatch)
    _nearest(x, codewords)
    quantize_map(x, Codebook(codewords))
    assert sum(rows) < 0.01 * 2 * x.shape[0]


def test_screen_settles_every_finite_row_at_one_codeword(monkeypatch):
    # With one codeword the lone estimate always settles a row whose
    # bound holds; only the non-finite row is measured exactly.
    r = np.random.default_rng(4095)
    x = r.normal(size=(500, 16))
    x[7, 3] = np.inf
    rows = _count_cdist_rows(monkeypatch)
    assert not _nearest(x, r.normal(size=(1, 16))).any()
    assert rows == [1]


def _count_kernel_rows(monkeypatch) -> list[int]:
    return _count_sqdist_rows(monkeypatch, 2)


def test_screened_init_measures_few_rows_per_centre(monkeypatch):
    r = np.random.default_rng(4097)
    x = r.normal(size=(4096, 16))
    k = 256
    rows = _count_kernel_rows(monkeypatch)
    kmeans_fit(x, k, 0, 0)
    # A full pass for the first centre, one call per later centre, and a
    # full pass for the distortion of the first assignment.
    assert len(rows) == k + 1 and rows[0] == rows[-1] == x.shape[0]
    assert sum(rows[1:-1]) < 0.1 * (k - 1) * x.shape[0]


@pytest.mark.parametrize("k", [4, 16])
def test_init_screens_every_centre_at_few_codewords(monkeypatch, k):
    # Even the first few centres are screened: each later centre measures
    # only the samples its estimate cannot prove farther away.
    x = np.random.default_rng(4098).normal(size=(4096, 16))
    rows = _count_kernel_rows(monkeypatch)
    kmeans_fit(x, k, 0, 0)
    assert len(rows) == k + 1 and rows[0] == rows[-1] == x.shape[0]
    assert all(count < x.shape[0] for count in rows[1:-1])


@st.composite
def init_cases(draw):
    """(samples, k, seed) for the k-means++ init, D >= 2.

    Kinds: Gaussian samples; fewer distinct points than centres, so the
    init runs out of distance mass and draws with rng.integers; and samples
    nudged off the midpoints of pairs of base points, nearly equidistant
    from two centres. Scales go from a tiny 1e-300 (distances that
    underflow) through 1e-160 and 1e-20 (float32 subnormal estimates) to
    1e19 (estimates past float32 range). K is drawn from 1 up, around 64 and
    past it.
    """
    high = 64
    edges = st.sampled_from([1, 2, 3, 4, high - 1, high, high + 1, 2 * high])
    k = draw(edges | st.integers(1, 150))
    n = draw(st.integers(k, k + 120))
    d = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["gauss", "duplicated", "near-tie"]))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-300, 1e19, 1e-20]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gauss":
        samples = r.normal(size=(n, d))
    elif kind == "duplicated":
        distinct = r.normal(size=(draw(st.integers(1, 8)), d))
        samples = distinct[r.integers(0, distinct.shape[0], size=n)]
    else:
        base = r.normal(size=(max(1, n // 4), d))
        pick = r.integers(0, base.shape[0], size=(2, n))
        nudge = r.normal(size=(n, d)) * 10.0 ** r.uniform(-12, 0, size=(n, 1))
        samples = (base[pick[0]] + base[pick[1]]) / 2 + nudge
        samples[: base.shape[0]] = base
    return samples * scale, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(init_cases())
def test_kmeans_pp_init_draws_what_rng_choice_draws(case):
    # The reference init draws with rng.choice(n, p=d2 / total); the init
    # under test replicates that draw and screens its distance passes.
    samples, k, seed = case
    centers, history = kmeans_fit(samples, k, 0, seed)
    ref_centers, ref_history, _ = _reference_kmeans_fit(samples, k, 0, seed)
    assert np.array_equal(centers, ref_centers)
    assert history == ref_history


@pytest.mark.parametrize("k", [1, 2, 70])
def test_kmeans_fit_near_the_overflow_scale_matches_the_reference(k):
    # Squared distances of about 1e301: still finite, so the fit goes ahead.
    samples = np.random.default_rng(52).normal(size=(300, 4)) * 1e150
    centers, history = kmeans_fit(samples, k, 5, 1)
    ref_centers, ref_history, _ = _reference_kmeans_fit(samples, k, 5, 1)
    assert np.array_equal(centers, ref_centers)
    assert history == ref_history


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 60),
    st.sampled_from([1.0, 1e-160, 1e-300, 1e150]),
    st.integers(0, 2**32 - 1),
)
def test_column_kernel_equals_cdist_bit_for_bit(d, n, scale, seed):
    # Every distance kmeans_fit reads comes from this kernel, so it is
    # checked at the assignment cases' scales, subnormal products included.
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, d)) * r.uniform(0.001, 1000.0, size=d) * scale
    centers = r.normal(size=(7, d)) * (10.0 * scale)
    columns = np.ascontiguousarray(x.T)
    full = cdist(x, centers, metric="sqeuclidean")
    assert np.array_equal(_sqdist(columns, centers[2]), full[:, 2])
    assign = r.integers(0, 7, size=n)
    own = _sqdist(columns, centers.T.take(assign, axis=1))
    assert np.array_equal(own, full[np.arange(n), assign])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 40),
    st.integers(1, 12),
    st.sampled_from([1.0, 1e-160, 1e-300, 1e150, 1e155, 1e200]),
    st.integers(0, 2**32 - 1),
)
def test_row_kernel_equals_cdist_bit_for_bit(d, n, k, scale, seed):
    # _nearest's exact rows: (rows, 1) columns against every codeword. At
    # 1e155 and 1e200 squared differences pass float64 range and are inf,
    # as in cdist.
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, d)) * r.uniform(0.001, 1000.0, size=d) * scale
    codewords = r.normal(size=(k, d)) * (10.0 * scale)
    got = _sqdist(x.T[:, :, None], codewords.T, (n, k))
    assert np.array_equal(got, cdist(x, codewords, metric="sqeuclidean"))
    if scale == 1e200:
        assert np.isinf(got).all()


# train_codebook hashes on a fixed sample, recorded with a full cdist
# assignment pass per Lloyd iteration; any codebook bit that moves changes
# them.
_PINNED_HASHES = {
    1: 0x0D47D482657D5E5C,
    4: 0x578FF2A90AE40990,
    16: 0x4484FF8B51B78FE6,
    64: 0xE6523C51ECFF5A80,
    256: 0x4773481B2A5A5355,
}


@pytest.mark.parametrize("k", sorted(_PINNED_HASHES))
def test_train_codebook_hashes_are_pinned(k):
    r = np.random.default_rng(20261018)
    samples = r.normal(size=(4096, 16)) * r.uniform(0.5, 3.0, size=16)
    assert train_codebook(samples, k, iters=25, seed=5).version_hash == _PINNED_HASHES[k]


def _column_view(samples: np.ndarray) -> np.ndarray:
    """The (N, D) samples as the .T view of a C-order (D, N) copy, as the fit passes them."""
    view = np.array(samples.T, order="C").T
    assert view.T.flags.c_contiguous and not np.shares_memory(view, samples)
    return view


@pytest.mark.parametrize("k", [1, 4, 64, 256])
def test_kmeans_fit_is_the_same_on_a_column_view_of_the_sample(k):
    # The float32 screen reads the view in another layout, so its estimates
    # may differ in the last bits; its bound holds in any summation order,
    # so every index, centre and distortion is the same.
    r = np.random.default_rng(20261020)
    samples = r.normal(size=(4096, 16)) * r.uniform(0.5, 3.0, size=16)
    centers, history = kmeans_fit(samples, k, 25, 5)
    view_centers, view_history = kmeans_fit(_column_view(samples), k, 25, 5)
    assert np.array_equal(centers, view_centers)
    assert history == view_history


@settings(max_examples=100, deadline=None)
@given(init_cases(), st.integers(0, 8))
def test_kmeans_fit_is_the_same_on_a_column_view_of_drawn_samples(case, iters):
    samples, k, seed = case
    centers, history = kmeans_fit(samples, k, iters, seed)
    view_centers, view_history = kmeans_fit(_column_view(samples), k, iters, seed)
    assert np.array_equal(centers, view_centers)
    assert history == view_history

