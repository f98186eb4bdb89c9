"""The rounding module: `tb` and the spectral baseline both round their
embeddings' rows with one call, `rounding.kmeans(frame, k)`: `pivoted_qr_seeds`
and one Lloyd run from those seeds on the unit rows. The Lloyd tests compare
`kmeans` and `_lloyd` with reference implementations written the way they
once ran, by their labels.

`tests/test_source_rules.py` keeps the rounding code in `rounding.py` and
keeps this file the only one that reaches into rounding's private names.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    Graph,
    InputError,
    NumericalError,
    Partition,
    StiefelPoint,
    closest_orthonormal,
    expected_model,
    kmeans,
    make_g6,
    model_from_ground_truth,
    pivoted_qr_seeds,
    projector_distance,
    sample_graph,
    spectral_cluster,
    template_cluster,
)
from templateclust import graphs
from templateclust.baselines import spectral_embedding
from templateclust.rounding import _lloyd

from conftest import email_graph


def inertia(points, labels):
    """The sum of squared distances of the points from their clusters' means."""
    return sum(float(np.sum((points[labels == c] - points[labels == c].mean(axis=0)) ** 2)) for c in np.unique(labels))


class TestKMeans:
    def test_single_cluster(self, rng):
        pts = rng.standard_normal((8, 2))
        assert np.array_equal(kmeans(pts, 1), np.zeros(8, dtype=int))

    def test_separated_duplicates(self):
        pts = np.repeat(np.eye(2), 3, axis=0)
        labels = kmeans(pts, 2)
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_unit_square_inertia(self):
        # brute-force oracle: all 2-partitions of the 4 corners; side pairs
        # are optimal with inertia 2 * (2 * 0.25) = 1.0. Lloyd from two
        # adjacent corners finds a side pair; from opposite corners, which tie
        # the other two, it stops at a worse local optimum
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        best = min(
            inertia(pts, np.array(assign))
            for assign in itertools.product([0, 1], repeat=4)
            if sum(assign) not in (0, 4)
        )
        assert best == pytest.approx(1.0)
        for i, j in itertools.combinations(range(4), 2):
            labels = _lloyd(pts, pts[[i, j]], max_iters=300)
            assert inertia(pts, labels) == pytest.approx(4 / 3 if i + j == 3 else best)

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(5).standard_normal((30, 3))
        seeds = pts[[0, 7, 14, 21]]
        given = seeds.copy()
        assert np.array_equal(_lloyd(pts, seeds, max_iters=300), _lloyd(pts, seeds, max_iters=300))
        assert np.array_equal(seeds, given)  # the caller's seeds are not moved

    def test_too_few_points(self):
        with pytest.raises(InputError):
            kmeans(np.zeros((2, 2)), 3)

    def test_points_not_a_matrix(self):
        for points in (np.zeros(4), np.zeros((4, 1, 1))):
            for call in (lambda: kmeans(points, 1), lambda: pivoted_qr_seeds(points, 1)):
                with pytest.raises(InputError, match="points must be a 2-d array of row vectors"):
                    call()

    def test_no_points(self):
        # not "k must be an integer from 1 to 0", a range no k meets
        with pytest.raises(InputError, match="^points must hold at least one row$"):
            kmeans(np.zeros((0, 2)), 1)

    def test_no_points_to_seed(self):
        with pytest.raises(InputError, match="^points must hold at least one row$"):
            pivoted_qr_seeds(np.zeros((0, 2)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points(self, rng, bad):
        pts = rng.standard_normal((6, 2))
        pts[3, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            kmeans(pts, 2)

    @staticmethod
    def assert_rounds_without_warning(pts, k, labels):
        # each raised "k-means squared distances overflow" when kmeans took centroids
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(kmeans(np.array(pts), k), labels)

    def test_overflowing_distances(self):
        # the first pivot, the largest row, seeds label 0
        self.assert_rounds_without_warning([[1e200, 0.0], [0.0, 1e200], [2e200, 0.0], [0.0, 3e200]], 2, [1, 0, 1, 0])

    def test_overflowing_norms_of_equal_points(self):
        # no two points are apart, but ||x||^2 - 2 x.c + ||c||^2 overflows
        self.assert_rounds_without_warning([[1e200], [1e200], [1e200]], 1, [0, 0, 0])


class TestGivenCentroids:
    def test_k_is_the_number_of_centroids(self, rng):
        pts = rng.standard_normal((6, 2))
        assert np.array_equal(np.unique(_lloyd(pts, pts[:3] + 0.5, max_iters=300)), [0, 1, 2])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 80),
    k=st.integers(1, 10),
    e=st.integers(0, 1000),
    separated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_labels_ignore_a_power_of_two_scale(n, k, e, separated, seed):
    """Scaling by 2^e is exact, and the seeding scales the points back by a
    power of 2, so the labels keep their bits out to entries near 1e300,
    whose squares overflow, and no numpy warning is raised on the way."""
    draw = np.random.default_rng(seed)
    k = min(k, n)
    points = separated_frame(draw, n, k)[0] if separated else np.linalg.qr(draw.standard_normal((n, k)))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(kmeans(points * 2.0**e, k), kmeans(points, k))


def lloyd_by_cluster_loop(points, centroids, max_iters):
    """Reference Lloyd: an n x k x d difference tensor per assignment and one
    boolean-mask mean per cluster, as `_lloyd` was written before its
    distances and centroids became matrix products."""
    n, _ = points.shape
    k = centroids.shape[0]
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        for c in range(k):
            mask = new_labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:
                worst = int(np.argmax(dists[np.arange(n), new_labels]))
                centroids[c] = points[worst]
                new_labels[worst] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return new_labels


def lloyd_one_restart(points, centroids, max_iters):
    """Reference Lloyd in the package's arithmetic (matrix product distances,
    one-hot centroid sums, the same empty-cluster refill), with labels by
    `np.argmin` and the refill as a loop over the empty clusters."""
    n, k = points.shape[0], centroids.shape[0]
    rows = np.arange(n)
    point_sq = np.einsum("ij,ij->i", points, points)[:, None]

    def sq_dists(c):
        return point_sq - 2.0 * (points @ c.T) + np.einsum("ij,ij->i", c, c)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dists = sq_dists(centroids)
        new_labels = np.argmin(dists, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        far = dists[rows, new_labels]
        for c in np.flatnonzero(counts == 0):
            worst = int(np.argmax(np.where(counts[new_labels] > 1, far, -np.inf)))
            counts[new_labels[worst]] -= 1
            new_labels[worst] = c
            counts[c] = 1
        membership = np.zeros((n, k))
        membership[rows, new_labels] = 1.0
        centroids = (membership.T @ points) / counts[:, None]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return new_labels


def lloyd_per_call(points, centroids, max_iters):
    """`_lloyd` as it ran before it skipped the empty-cluster scan when no
    count is 0 and compared labels without np.array_equal: the same
    arithmetic in the same order."""
    k = centroids.shape[0]
    rows = np.arange(points.shape[0])
    point_sq = np.einsum("ij,ij->i", points, points)
    one_hot = np.eye(k)

    def sq_dists(c):
        dots = points @ c.T
        dots *= -2.0
        dists = np.add(dots.T, point_sq, order="C")
        dists += np.einsum("ij,ij->i", c, c)[:, None]
        return dists

    labels = np.full(rows.size, k)
    for _ in range(max_iters):
        dists = sq_dists(centroids)
        new_labels = dists.argmin(axis=0)
        nearest = dists[new_labels, rows]
        counts = np.bincount(new_labels, minlength=k)
        for c in np.flatnonzero(counts == 0):
            worst = int(np.argmax(np.where(counts[new_labels] > 1, nearest, -np.inf)))
            counts[new_labels[worst]] -= 1
            new_labels[worst] = c
            counts[c] = 1
        if np.array_equal(new_labels, labels):
            return labels
        centroids = (one_hot.take(new_labels, axis=0).T @ points) / counts[:, None]
        labels = new_labels
    return labels


def pivoted_qr_seeds_per_call(points, k):
    """`pivoted_qr_seeds` on valid points as it ran before it kept machine
    epsilon as a constant, took the pivots' rows once and projected with a
    broadcast product instead of np.outer."""
    n, d = points.shape
    points = np.ldexp(points, -np.frexp(np.abs(points).max())[1])
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    tol = max(n, d) * np.finfo(float).eps * norms.max()
    residual = points.copy()
    pivots = []
    for rank in range(k):
        sq = np.einsum("ij,ij->i", residual, residual)
        pivot = int(np.argmax(sq))
        if not sq[pivot] > tol * tol:
            raise NumericalError(f"rank {rank}")
        pivots.append(pivot)
        q = residual[pivot] / np.sqrt(sq[pivot])
        residual -= np.outer(residual @ q, q)
    rows = points / np.where(norms > 0, norms, 1.0)[:, None]
    u, _, vt = np.linalg.svd(rows[pivots].T, full_matrices=False)
    labels = np.argmax(np.abs(rows @ (u @ vt)), axis=1)
    counts = np.bincount(labels, minlength=k)[:, None]
    sums = np.eye(k)[labels].T @ rows
    return rows, np.where(counts > 0, sums / np.maximum(counts, 1), rows[pivots])


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 120),
    k=st.integers(1, 12),
    extra=st.integers(0, 3),
    scale=st.integers(-30, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_rounding_is_the_per_call_rounding_bit_for_bit(n, k, extra, scale, seed):
    """Seeds and labels of random frames (k = 1 included), with `extra`
    columns beyond k and scaled by a power of 10, carry the bits of the
    rounding that recomputed its constants on every call."""
    draw = np.random.default_rng(seed)
    k = min(k, n)
    d = min(k + extra, n)
    frame = np.linalg.qr(draw.standard_normal((n, d)))[0] * 10.0**scale
    rows, seeds = pivoted_qr_seeds(frame, k)
    ref_rows, ref_seeds = pivoted_qr_seeds_per_call(frame, k)
    assert same_bits(rows, ref_rows) and same_bits(seeds, ref_seeds)
    assert same_bits(kmeans(frame, k), lloyd_per_call(ref_rows, ref_seeds, max_iters=300))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 4),
    k=st.integers(2, 8),
    iters=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_lloyd_repairs_empty_clusters_as_the_per_call_lloyd(n, d, k, iters, seed):
    """Centroids far out leave clusters empty, so the refill runs; duplicate
    integer points bring ties. Labels keep the per-call run's bits."""
    draw = np.random.default_rng(seed)
    points = draw.integers(0, 3, (n, d)).astype(float)
    centroids = draw.standard_normal((min(k, n), d)) * 10.0 ** draw.integers(0, 4, (min(k, n), 1))
    labels = _lloyd(points, centroids, max_iters=iters)
    assert same_bits(labels, lloyd_per_call(points, centroids.copy(), max_iters=iters))


def test_forced_refill_keeps_the_per_call_bits():
    # the third centroid takes no point in the first iteration
    points = np.array([[0.0], [1.0], [2.0], [50.0]])
    centroids = np.array([[1.0], [60.0], [1000.0]])
    for iters in (1, 300):
        assert same_bits(_lloyd(points, centroids, max_iters=iters), lloyd_per_call(points, centroids, max_iters=iters))
    assert np.array_equal(_lloyd(points, centroids, max_iters=1), [2, 0, 0, 1])


class TestLloydMatchesClusterLoop:
    def assert_matches_reference(self, points, centroids):
        labels = _lloyd(points, centroids, max_iters=300)
        assert np.array_equal(labels, lloyd_by_cluster_loop(points, centroids.copy(), max_iters=300))

    def assert_rounding_matches_reference(self, embedding, k):
        rows, seeds = pivoted_qr_seeds(embedding, k)
        assert np.array_equal(kmeans(embedding, k), lloyd_by_cluster_loop(rows, seeds, max_iters=300))

    @pytest.mark.parametrize(
        "n, k, d", [(30, 3, 2), (120, 5, 3), (300, 12, 12), (400, 8, 40), (200, 12, 129), (150, 6, 300)]
    )
    def test_separated_blobs(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        centres = 10.0 * rng.standard_normal((k, d))
        points = centres[np.arange(n) % k] + rng.standard_normal((n, d))
        self.assert_matches_reference(points, points[rng.permutation(n)[:k]])

    def test_ties_go_to_the_lowest_index(self):
        # 1 is exactly as far from centroid 0 as from centroid 2
        points = np.array([[0.0], [1.0], [2.0]])
        labels = _lloyd(points, np.array([[0.0], [2.0]]), max_iters=1)
        assert np.array_equal(labels, [0, 0, 1])
        assert np.array_equal(labels, lloyd_by_cluster_loop(points, np.array([[0.0], [2.0]]), max_iters=1))

    def test_g6_embeddings(self):
        spec = make_g6(40)
        g, _ = sample_graph(spec, np.random.default_rng(3))
        tb = template_cluster(g, expected_model(spec), rng=np.random.default_rng(4))
        self.assert_rounding_matches_reference(tb.embedding.matrix, 6)
        self.assert_rounding_matches_reference(spectral_embedding(g, 6).matrix, 6)

    def test_email_file_embeddings(self, monkeypatch, tmp_path):
        g, gt = email_graph(monkeypatch, tmp_path, 0, 0)
        tb = template_cluster(g, model_from_ground_truth(g, gt), rng=np.random.default_rng(1))
        self.assert_rounding_matches_reference(tb.embedding.matrix, gt.k)
        self.assert_rounding_matches_reference(spectral_embedding(g, gt.k).matrix, gt.k)


class TestEmptyClusters:
    def test_fewer_distinct_points_than_k(self):
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
        for seed in range(5):
            seeds = np.random.default_rng(seed).standard_normal((5, 2))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                labels = _lloyd(points, seeds, max_iters=300)
            assert labels.min() >= 0 and labels.max() <= 4
            assert np.bincount(labels, minlength=5).all()

    def test_refill_never_empties_a_singleton(self):
        # one iteration: the point at 50 is the farthest from its centroid but
        # alone in its cluster, so the empty third cluster takes the next
        # farthest, 0
        points = np.array([[0.0], [1.0], [2.0], [50.0]])
        labels = _lloyd(points, np.array([[1.0], [60.0], [1000.0]]), max_iters=1)
        assert np.array_equal(labels, [2, 0, 0, 1])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 250),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    kind=st.sampled_from(["grid", "normal", "frame"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_from_given_centroids_is_one_reference_run(n, d, k, kind, seed):
    """Lloyd from given centroids is one reference run, empty-cluster refill
    included. Integer grid points bring exact ties and duplicate rows; a
    frame is the rounding both methods run, at the benchmark's shapes out to
    email-file's k = 12: an orthonormal n x k frame's unit rows and their
    pivoted-QR seeds."""
    draw = np.random.default_rng(seed)
    k = min(k, n)
    if kind == "frame":
        points, centroids = pivoted_qr_seeds(np.linalg.qr(draw.standard_normal((n, k)))[0], k)
    else:
        points = draw.integers(0, 3, (n, d)).astype(float) if kind == "grid" else draw.standard_normal((n, d))
        centroids = draw.standard_normal((k, d)) * 2.0
    labels = _lloyd(points, centroids, max_iters=300)
    assert np.array_equal(labels, lloyd_one_restart(points, centroids.copy(), max_iters=300))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 80),
    d=st.integers(1, 6),
    k=st.integers(1, 8),
    iters=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_capped_lloyd_run_is_the_reference_run(n, d, k, iters, seed):
    """A run stopped by max_iters before its labels repeat returns its last
    labels, as the reference does."""
    draw = np.random.default_rng(seed)
    points = draw.standard_normal((n, d))
    centroids = draw.standard_normal((min(k, n), d)) * 2.0
    labels = _lloyd(points, centroids, max_iters=iters)
    assert np.array_equal(labels, lloyd_one_restart(points, centroids.copy(), max_iters=iters))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 259),
    d=st.integers(1, 44),
    k=st.integers(1, 12),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_invariant_under_column_signs(n, d, k, grid, seed):
    """Negating columns negates every coordinate, centroid and dot product
    exactly and leaves every square, so the run is the same bit for bit: the
    exact case of invariance under P -> PQ."""
    draw = np.random.default_rng(seed)
    # integer grid points bring exact ties and duplicate rows
    points = draw.integers(-2, 3, (n, d)).astype(float) if grid else draw.standard_normal((n, d))
    signs = draw.choice([-1.0, 1.0], d)
    seeds = points[draw.integers(0, n, min(k, n))]  # repeated rows tie
    labels = _lloyd(points, seeds, max_iters=300)
    assert np.array_equal(labels, _lloyd(points * signs, seeds * signs, max_iters=300))


def largest_entry_positive(p):
    """The sign rule `spectral_embedding` once applied: each column's
    largest-magnitude entry is made positive."""
    m = p.matrix.copy()
    for c in range(m.shape[1]):
        if m[np.argmax(np.abs(m[:, c])), c] < 0:
            m[:, c] = -m[:, c]
    return StiefelPoint(m)


@pytest.mark.parametrize("name", ["g6-40", "email"])
def test_spectral_outputs_independent_of_eigenvector_signs(name, tmp_path, monkeypatch):
    if name == "email":
        g, gt = email_graph(monkeypatch, tmp_path, 0, 0)
    else:
        g, gt = sample_graph(make_g6(40), np.random.default_rng(3))
    p = spectral_embedding(g, gt.k)
    fixed = largest_entry_positive(p)
    labels = spectral_cluster(g, gt.k, np.random.default_rng(0)).labels
    assert np.array_equal(labels, round_by_pivots(fixed.matrix, gt.k))
    truth = closest_orthonormal(gt)
    assert projector_distance(p, truth) == projector_distance(fixed, truth)


def round_by_pivots(points, k):
    """The shared rounding, labels canonical by first appearance."""
    return Partition(kmeans(points, k)).labels


def separated_frame(draw, n, k):
    """n rows near k orthonormal directions, each row scaled by a factor in
    [1/2, 2] and each direction taken by some row, and the true labels."""
    labels = np.concatenate([np.arange(k), draw.integers(0, k, n - k)])
    draw.shuffle(labels)
    directions, _ = np.linalg.qr(draw.standard_normal((k, k)))
    scale = draw.uniform(0.5, 2.0, n)[:, None]
    return directions[labels] * scale + 1e-3 * draw.standard_normal((n, k)), labels


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_pivoted_rounding_invariant_under_rotations_and_row_scaling(n, k, seed):
    """On well-separated clusters the rounding finds the clusters, and neither
    P -> PQ for an orthogonal Q nor a positive factor on each row changes the
    partition."""
    draw = np.random.default_rng(seed)
    k = min(k, n)
    points, truth = separated_frame(draw, n, k)
    partition = round_by_pivots(points, k)
    assert np.array_equal(partition, Partition(truth).labels)
    q, _ = np.linalg.qr(draw.standard_normal((k, k)))
    assert np.array_equal(round_by_pivots(points @ q, k), partition)
    factors = np.exp(draw.uniform(-5.0, 5.0, n))[:, None]
    assert np.array_equal(round_by_pivots(points * factors, k), partition)


def test_pivoted_seeds_keep_zero_rows():
    points = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, -3.0], [1.0, 1.0]])
    rows, seeds = pivoted_qr_seeds(points, 2)
    r = 1 / np.sqrt(2)
    assert np.array_equal(rows, [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0], [r, r]])
    assert seeds.shape == (2, 2) and np.isfinite(seeds).all()


@pytest.mark.parametrize("noise", [1e-17, -3e-16, 5e-16])
def test_pivoted_seeds_zero_a_row_that_is_zero_but_for_rounding(noise):
    """A row of norm at most max(n, d) eps times the largest is the pivots'
    zero: it is set to zero, and seeds and labels are those of exact zeros."""
    points = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, -3.0], [1.0, 1.0]])
    exact = pivoted_qr_seeds(points, 2)
    points[1] = [noise, -noise / 2]
    rows, seeds = pivoted_qr_seeds(points, 2)
    assert np.array_equal(rows, exact[0]) and np.array_equal(seeds, exact[1])
    assert np.array_equal(_lloyd(rows, seeds, max_iters=300), _lloyd(*exact, max_iters=300))


def test_certified_tb_labels_do_not_follow_the_route_of_its_pairs(monkeypatch, tmp_path):
    """Email-file graph (11, 0) holds an isolated edge, whose rows in the
    adjacency's top 12 eigenvectors are exact zeros from dense eigh and near
    1e-16 from LAPACK's subset driver. Rounded, both frames give one
    partition (once ARI 0.9646 against 0.9407)."""
    g, gt = email_graph(monkeypatch, tmp_path, 11, 0)
    model = model_from_ground_truth(g, gt)
    subset = template_cluster(g, model, np.random.default_rng(0))
    monkeypatch.setattr(graphs, "SUBSET_MIN_VERTICES_PER_PAIR", g.n + 1)
    dense = template_cluster(Graph(g.adjacency), model, np.random.default_rng(0))
    assert subset.trace.iterates_count == dense.trace.iterates_count == 0
    assert np.array_equal(subset.partition, dense.partition)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    rank=st.integers(0, 6),
    extra=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivoted_seeds_name_the_rank_of_dependent_rows(n, rank, extra, seed):
    """Points with fewer than k independent rows raise NumericalError naming
    their rank. An orthonormal frame has k; a library caller's points may not.
    The rows are combinations of `rank` orthonormal vectors whose coefficient
    matrix holds the identity, so its smallest singular value is at least 1."""
    draw = np.random.default_rng(seed)
    rank = min(rank, n - 1)
    k = min(rank + extra, n)
    d = k + int(draw.integers(0, 3))
    basis, _ = np.linalg.qr(draw.standard_normal((d, d)))
    coefficients = np.vstack([np.eye(rank), draw.integers(-3, 4, (n - rank, rank))])
    # squares of entries near 1e200 overflow and near 1e-200 underflow, unless
    # the seeding scales the points first
    points = draw.permutation(coefficients @ basis[:rank]) * 10.0 ** draw.integers(-200, 200)
    with pytest.raises(NumericalError, match=f"needs k={k} independent rows, but the points have rank {rank}$"):
        pivoted_qr_seeds(points, k)


def test_pivoted_seeds_with_more_clusters_than_coordinates():
    with pytest.raises(NumericalError, match="have rank 2$"):
        pivoted_qr_seeds(np.random.default_rng(0).standard_normal((9, 2)), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pivoted_seeds_reject_non_finite_points(bad):
    points = np.eye(3)
    points[1, 2] = bad
    with pytest.raises(InputError, match="non-finite"):
        pivoted_qr_seeds(points, 2)
