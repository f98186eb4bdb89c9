import importlib.util
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from templateclust import (
    InputError,
    NumericalError,
    StiefelPoint,
    TemplateModel,
    adjusted_rand_index,
    eigenvector_start,
    euclidean_gradient,
    expected_model,
    kmeans,
    load_edge_list,
    load_labels,
    make_c2,
    make_g6,
    model_from_ground_truth,
    objective,
    projector_distance,
    random_stiefel,
    sample_graph,
    steepest_descent,
    template_cluster,
)
from templateclust.baselines import spectral_embedding
from templateclust.template import CERTIFICATE_TOL, _kmeans_pp_init, _lloyd, _pairwise_sum, _sum_order

from conftest import load_bench_workloads, random_simple_graph, two_triangles


def normalized_indicator(labels, k):
    n = len(labels)
    b = np.zeros((n, k))
    b[np.arange(n), labels] = 1.0
    return StiefelPoint(b / np.sqrt(b.sum(axis=0)))


def finite_diff_gradient(a_o, model, p, h=1e-6):
    """Central-difference oracle for the misfit gradient, entry by entry."""
    n, k = p.shape
    grad = np.zeros((n, k))
    base = p.matrix
    for i in range(n):
        for j in range(k):
            plus = base.copy()
            plus[i, j] += h
            minus = base.copy()
            minus[i, j] -= h
            f_plus = np.sum((model.weights - plus.T @ a_o @ plus) ** 2)
            f_minus = np.sum((model.weights - minus.T @ a_o @ minus) ** 2)
            grad[i, j] = (f_plus - f_minus) / (2 * h)
    return grad


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_template_rejected(bad):
    with pytest.raises(InputError, match="non-finite"):
        TemplateModel(np.array([[1.0, bad], [bad, 1.0]]))


class TestObjective:
    def test_zero_everything(self):
        p = StiefelPoint(np.eye(4)[:, :2])
        assert objective(np.zeros((4, 4)), TemplateModel(np.zeros((2, 2))), p) == 0.0

    def test_zero_adjacency(self):
        p = StiefelPoint(np.eye(4)[:, :2])
        m = TemplateModel(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert objective(np.zeros((4, 4)), m, p) == pytest.approx(np.sum(m.weights**2))

    def test_two_triangles_hand_value(self):
        g = two_triangles()
        m = TemplateModel(np.array([[6.0, 0.0], [0.0, 6.0]]))
        p = normalized_indicator([0, 0, 0, 1, 1, 1], 2)
        # direct matrix-product oracle: P^T A P = [[2,0],[0,2]]
        contracted = p.matrix.T @ g.adjacency @ p.matrix
        assert np.allclose(contracted, [[2, 0], [0, 2]], atol=1e-12)
        assert objective(g.adjacency, m, p) == pytest.approx(32.0, abs=1e-10)

    def test_dimension_mismatch(self):
        p = StiefelPoint(np.eye(4)[:, :2])
        with pytest.raises(InputError):
            objective(np.zeros((5, 5)), TemplateModel(np.zeros((2, 2))), p)

    def test_nonnegative_and_relabel_invariant(self, rng):
        g = random_simple_graph(7, rng)
        m = rng.random((3, 3))
        m = TemplateModel(m + m.T)
        p = random_stiefel(7, 3, rng)
        f = objective(g.adjacency, m, p)
        assert f >= 0
        for perm in itertools.permutations(range(3)):
            pi = np.eye(3)[:, list(perm)]
            m_perm = TemplateModel(pi.T @ m.weights @ pi)
            p_perm = StiefelPoint(p.matrix @ pi)
            assert objective(g.adjacency, m_perm, p_perm) == pytest.approx(f, rel=1e-10)


class TestGradient:
    def test_zero_adjacency(self, rng):
        p = random_stiefel(5, 2, rng)
        m = TemplateModel(np.array([[1.0, 0.5], [0.5, 2.0]]))
        assert np.array_equal(euclidean_gradient(np.zeros((5, 5)), m, p), np.zeros((5, 2)))

    def test_stationary_at_exact_fit(self, rng):
        g = random_simple_graph(6, rng)
        p = random_stiefel(6, 2, rng)
        contracted = p.matrix.T @ g.adjacency @ p.matrix
        m = TemplateModel((contracted + contracted.T) / 2)  # exact symmetry
        assert np.max(np.abs(euclidean_gradient(g.adjacency, m, p))) <= 1e-10

    def test_matches_finite_differences(self, rng):
        g = random_simple_graph(6, rng)
        m = rng.random((2, 2)) * 3
        m = TemplateModel(m + m.T)
        p = random_stiefel(6, 2, rng)
        exact = euclidean_gradient(g.adjacency, m, p)
        approx = finite_diff_gradient(g.adjacency, m, p)
        assert np.linalg.norm(exact - approx) / max(np.linalg.norm(approx), 1e-12) <= 1e-5


class TestKMeans:
    def test_single_cluster(self, rng):
        pts = rng.standard_normal((8, 2))
        labels, inertia = kmeans(pts, 1, rng)
        assert np.array_equal(labels, np.zeros(8, dtype=int))
        assert inertia == pytest.approx(np.sum((pts - pts.mean(axis=0)) ** 2))

    def test_separated_duplicates(self, rng):
        pts = np.repeat(np.eye(2), 3, axis=0)
        labels, inertia = kmeans(pts, 2, rng)
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_unit_square_inertia(self, rng):
        # brute-force oracle: all 2-partitions of the 4 corners; side pairs
        # are optimal with inertia 2 * (2 * 0.25) = 1.0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        best = np.inf
        for assign in itertools.product([0, 1], repeat=4):
            assign = np.array(assign)
            if assign.sum() in (0, 4):
                continue
            inertia = 0.0
            for c in (0, 1):
                group = pts[assign == c]
                inertia += np.sum((group - group.mean(axis=0)) ** 2)
            best = min(best, inertia)
        assert best == pytest.approx(1.0)
        _, inertia = kmeans(pts, 2, rng)
        assert inertia == pytest.approx(best)

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(5).standard_normal((30, 3))
        l1, i1 = kmeans(pts, 4, np.random.default_rng(9))
        l2, i2 = kmeans(pts, 4, np.random.default_rng(9))
        assert np.array_equal(l1, l2) and i1 == i2

    def test_too_few_points(self, rng):
        with pytest.raises(InputError):
            kmeans(np.zeros((2, 2)), 3, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points(self, rng, bad):
        pts = rng.standard_normal((6, 2))
        pts[3, 1] = bad
        with pytest.raises(InputError, match="non-finite"):
            kmeans(pts, 2, rng)

    @staticmethod
    def assert_overflow_before_seeding(pts, k, rng):
        # raised before seeding draws anything, and without a numpy warning
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow"):
                kmeans(np.array(pts), k, rng)
        assert rng.bit_generator.state == state

    def test_overflowing_distances(self, rng):
        self.assert_overflow_before_seeding([[0.0], [1e200], [2e200], [3e200]], 2, rng)

    def test_overflowing_norms_of_equal_points(self, rng):
        # no two points are apart, but ||x||^2 - 2 x.c + ||c||^2 overflows
        self.assert_overflow_before_seeding([[1e200], [1e200], [1e200]], 1, rng)


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
            labels = new_labels
            break
        labels = new_labels
    dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return labels, float(dists[np.arange(n), labels].sum())


def kmeans_pp_by_choice(points, k, rng):
    """Reference k-means++ seeding for one restart: each later centroid is
    drawn by rng.choice with probability proportional to squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        centroids[c] = points[rng.choice(n, p=d2 / d2.sum())]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def lloyd_one_restart(points, centroids, max_iters):
    """Reference Lloyd for one restart in the package's arithmetic (matrix
    product distances, one-hot centroid sums, the same empty-cluster refill),
    as `_lloyd` ran each restart before the restarts became one batch."""
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
    return new_labels, float(sq_dists(centroids)[rows, new_labels].sum())


def kmeans_by_cluster_loop(points, k, rng, restarts=10, max_iters=300, lloyd=lloyd_by_cluster_loop):
    """Reference k-means: restarts one after another, each seeded by
    `kmeans_pp_by_choice` and run by `lloyd`, the first of equal inertias kept."""
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        labels, inertia = lloyd(points, kmeans_pp_by_choice(points, k, rng), max_iters)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia


@pytest.fixture
def email_graph(tmp_path, monkeypatch):
    """Planted graph 0 of the benchmark's file workload, loaded as `real` loads it."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    workloads.write_email_graph(0, 0, tmp_path)
    g, ids = load_edge_list(tmp_path / "edges-0.txt")
    return g, load_labels(tmp_path / "labels-0.txt", g.n, ids)


class TestLloydMatchesClusterLoop:
    def assert_matches_reference(self, points, k, seed):
        labels, inertia = kmeans(points, k, np.random.default_rng(seed))
        ref_labels, ref_inertia = kmeans_by_cluster_loop(points, k, np.random.default_rng(seed))
        assert np.array_equal(labels, ref_labels)
        assert inertia == pytest.approx(ref_inertia, rel=1e-9)

    @pytest.mark.parametrize("n, k, d", [(30, 3, 2), (120, 5, 3), (300, 12, 12), (400, 8, 40)])
    def test_separated_blobs(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        centres = 10.0 * rng.standard_normal((k, d))
        points = centres[np.arange(n) % k] + rng.standard_normal((n, d))
        self.assert_matches_reference(points, k, seed=d)

    def test_ties_go_to_the_lowest_index(self):
        # 1 is exactly as far from centroid 0 as from centroid 2
        points = np.array([[0.0], [1.0], [2.0]])
        (labels,), _ = _lloyd(points, np.array([[[0.0], [2.0]]]), max_iters=1)
        ref_labels, _ = lloyd_by_cluster_loop(points, np.array([[0.0], [2.0]]), max_iters=1)
        assert np.array_equal(labels, [0, 0, 1])
        assert np.array_equal(labels, ref_labels)

    def test_g6_embeddings(self):
        spec = make_g6(40)
        g, _ = sample_graph(spec, np.random.default_rng(3))
        tb = template_cluster(g, expected_model(spec), rng=np.random.default_rng(4))
        self.assert_matches_reference(tb.embedding.matrix, 6, seed=5)
        self.assert_matches_reference(spectral_embedding(g, 6).matrix, 6, seed=6)

    def test_email_file_embeddings(self, email_graph):
        g, gt = email_graph
        tb = template_cluster(g, model_from_ground_truth(g, gt), rng=np.random.default_rng(1))
        self.assert_matches_reference(tb.embedding.matrix, gt.k, seed=2)
        self.assert_matches_reference(spectral_embedding(g, gt.k).matrix, gt.k, seed=3)


class TestEmptyClusters:
    def test_fewer_distinct_points_than_k(self):
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
        for seed in range(5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                labels, inertia = kmeans(points, 5, np.random.default_rng(seed))
            assert labels.min() >= 0 and labels.max() <= 4
            assert np.bincount(labels, minlength=5).all()
            assert np.isfinite(inertia)

    def test_refill_never_empties_a_singleton(self):
        # one iteration: the point at 50 is the farthest from its centroid but
        # alone in its cluster, so the empty third cluster takes the next
        # farthest, 0
        points = np.array([[0.0], [1.0], [2.0], [50.0]])
        (labels,), (inertia,) = _lloyd(points, np.array([[[1.0], [60.0], [1000.0]]]), max_iters=1)
        assert np.array_equal(labels, [2, 0, 0, 1])
        assert inertia == pytest.approx(0.5)

    def test_zero_distance_seed_takes_row_floor_u_n(self):
        # two distinct rows and k=3: once both are seeds the squared distances
        # sum to 0, and the third seed is row floor(u * n) of its own uniform
        points = np.array([[0.0], [0.0], [0.0], [5.0]])
        seeds = _kmeans_pp_init(points, 3, np.random.default_rng(7), restarts=10)
        twin = np.random.default_rng(7)
        for r in range(10):
            first, u = twin.integers(4), twin.random(2)
            assert seeds[r, 0, 0] == points[first, 0]
            assert seeds[r, 1, 0] == 5.0 - points[first, 0]
            assert seeds[r, 2, 0] == points[int(u[1] * 4), 0]
        rng = np.random.default_rng(7)
        labels, inertia = kmeans(points, 3, rng)
        assert rng.bit_generator.state == twin.bit_generator.state
        again, _ = kmeans(points, 3, np.random.default_rng(7))
        assert np.array_equal(labels, again)
        assert np.bincount(labels, minlength=3).all()
        assert inertia == 0.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 4),
    k=st.integers(1, 6),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_matches_sequential_reference(n, d, k, grid, seed):
    draw = np.random.default_rng(seed)
    # integer grid points bring exact ties and duplicate rows
    points = draw.integers(0, 3, (n, d)).astype(float) if grid else draw.standard_normal((n, d))
    assume(len(np.unique(points, axis=0)) >= k)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    labels, inertia = kmeans(points, k, rng)
    ref_labels, ref_inertia = kmeans_by_cluster_loop(points, k, ref_rng, lloyd=lloyd_one_restart)
    assert np.array_equal(labels, ref_labels)
    assert inertia == pytest.approx(ref_inertia, rel=1e-9, abs=1e-12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if not grid:
        # at an exact tie the difference tensor's rounding can pick the other
        # centroid, or another restart that found the same clusters under
        # other numbers; off ties it must find the same partition
        loop_labels, loop_inertia = kmeans_by_cluster_loop(points, k, np.random.default_rng(seed + 1))
        assert len(set(zip(labels, loop_labels))) == len(set(labels)) == len(set(loop_labels))
        assert inertia == pytest.approx(loop_inertia, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 250),
    d=st.integers(1, 12),
    k=st.integers(1, 12),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_matches_sequential_reference_at_benchmark_shapes(n, d, k, grid, seed):
    # out to email-file's d = k = 12: from d = 8 on, np.sum adds a row's
    # squares as a pairwise tree, which the batched seeding must reproduce
    draw = np.random.default_rng(seed)
    points = draw.integers(0, 3, (n, d)).astype(float) if grid else draw.standard_normal((n, d))
    assume(len(np.unique(points, axis=0)) >= k)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    labels, inertia = kmeans(points, k, rng)
    ref_labels, ref_inertia = kmeans_by_cluster_loop(points, k, ref_rng, lloyd=lloyd_one_restart)
    assert np.array_equal(labels, ref_labels)
    assert inertia == pytest.approx(ref_inertia, rel=1e-9)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 7, 8, 12, 17, 40, 128, 129, 300])
def test_seeding_sums_have_the_bits_of_np_sum(d):
    # k-means++ picks compare cumulative distances, so the seeding's sums over
    # a leading axis must round as np.sum rounds a contiguous row
    squares = np.random.default_rng(d).standard_normal((4, 9, d)) ** 2 * np.logspace(-3, 3, d)
    terms = np.ascontiguousarray(squares.transpose(2, 0, 1)[_sum_order(d)])
    assert _pairwise_sum(terms).tobytes() == squares.sum(axis=2).tobytes()


def test_lloyd_restart_bits_independent_of_slot_and_numbering():
    """A restart's arithmetic is its own: neither its slot in the batch nor
    the numbers of its clusters may change a bit of its result. Otherwise two
    restarts that find the same clusters can differ in the last bit of their
    inertia, and the later one can win the best-of-restarts."""
    points = np.random.default_rng(0).standard_normal((27, 1))
    seeds = _kmeans_pp_init(points, 3, np.random.default_rng(1), restarts=10)
    labels, inertia = _lloyd(points, seeds, max_iters=300)
    rev_labels, rev_inertia = _lloyd(points, seeds[::-1], max_iters=300)
    for r in range(10):
        (alone,), (alone_inertia,) = _lloyd(points, seeds[r : r + 1], max_iters=300)
        assert np.array_equal(labels[r], alone) and np.array_equal(rev_labels[9 - r], alone)
        assert inertia[r].tobytes() == alone_inertia.tobytes() == rev_inertia[9 - r].tobytes()
    # restarts 0 and 3 end in one partition, numbered differently
    assert not np.array_equal(labels[0], labels[3])
    assert len(set(zip(labels[0], labels[3]))) == len(set(labels[0])) == 3
    assert inertia[0].tobytes() == inertia[3].tobytes()


class TestTemplateCluster:
    def test_two_triangles_perfect(self, rng):
        g = two_triangles()
        m = TemplateModel(np.array([[6.0, 0.0], [0.0, 6.0]]))
        res = template_cluster(g, m, rng=rng)
        assert adjusted_rand_index(res.partition, [0, 0, 0, 1, 1, 1]) == pytest.approx(1.0)
        hist = res.trace.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_complete_bipartite(self, rng):
        # K_{4,4}: intra prob 0, inter prob 1; template [[0,16],[16,0]]
        adj = np.zeros((8, 8))
        adj[:4, 4:] = 1.0
        adj[4:, :4] = 1.0
        from templateclust import Graph

        g = Graph(adj)
        m = TemplateModel(np.array([[0.0, 16.0], [16.0, 0.0]]))
        res = template_cluster(g, m, rng=rng)
        assert adjusted_rand_index(res.partition, [0] * 4 + [1] * 4) == pytest.approx(1.0)

    def test_g3_mean_ari(self):
        from templateclust import expected_model, make_g3, sample_graph

        spec = make_g3(10)
        model = expected_model(spec)
        aris = []
        for s in range(10):
            g, gt = sample_graph(spec, np.random.default_rng(50 + s))
            res = template_cluster(g, model, rng=np.random.default_rng(150 + s))
            aris.append(adjusted_rand_index(res.partition, gt.labels))
        assert np.mean(aris) >= 0.95

    def test_relaxation_dominance_small(self, rng):
        # exhaustive oracle: relaxed optimum must not exceed the best
        # column-normalized binary assignment
        for trial in range(5):
            n = 6
            g = random_simple_graph(n, rng)
            w = rng.random((2, 2)) * 3
            model = TemplateModel(w + w.T)
            best = np.inf
            for assign in itertools.product([0, 1], repeat=n):
                assign = np.array(assign)
                if assign.sum() in (0, n):
                    continue
                p_b = normalized_indicator(assign, 2)
                best = min(best, objective(g.adjacency, model, p_b))
            res = template_cluster(g, model, rng=rng)
            f_opt = objective(g.adjacency, model, res.embedding)
            assert f_opt <= best + 1e-6

    def test_k_must_be_smaller_than_n(self, rng):
        g = two_triangles()
        with pytest.raises(InputError):
            template_cluster(g, TemplateModel(np.zeros((6, 6))), rng=rng)


def interlacing_bound(a_o, weights):
    """Oracle for LB = sum_i dist(lambda_i, [mu_i, mu_{n-k+i}])^2, one
    interval at a time."""
    mu = np.linalg.eigvalsh(a_o)
    lam = np.linalg.eigvalsh(weights)
    n, k = len(mu), len(lam)
    total = 0.0
    for i in range(k):
        low, high = mu[i], mu[n - k + i]
        nearest = min(max(lam[i], low), high)
        total += (lam[i] - nearest) ** 2
    return total


def oracle_certified(a_o, model):
    """Whether the eigenvector frame, built column by column, attains LB.

    Template eigenvector j (ascending) is matched to the j-th smallest
    eigenvector of A_O when its eigenvalue is negative and to the
    (k - j)-th largest otherwise."""
    lam, u = np.linalg.eigh(model.weights)
    _, v = np.linalg.eigh(a_o)
    n, k = a_o.shape[0], len(lam)
    columns = [v[:, j] if lam[j] < 0 else v[:, n - k + j] for j in range(k)]
    frame = StiefelPoint(np.column_stack(columns) @ u.T)
    bound = interlacing_bound(a_o, model.weights)
    return objective(a_o, model, frame) <= bound + CERTIFICATE_TOL * certificate_scale(model), bound


def certificate_scale(model):
    return max(1.0, float(np.sum(model.weights**2)))


def random_start_descent(a_o, model, rng):
    return steepest_descent(
        lambda p: objective(a_o, model, p),
        lambda p: euclidean_gradient(a_o, model, p),
        random_stiefel(a_o.shape[0], model.k, rng),
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 10),
    k=st.integers(2, 3),
    density=st.floats(0.1, 0.9),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lower_bound_holds_and_certified_runs_attain_it(n, k, density, scale, seed):
    rng = np.random.default_rng(seed)
    a = random_simple_graph(n, rng, density)
    w = rng.standard_normal((k, k)) * scale
    model = TemplateModel(w + w.T)
    certified, bound = oracle_certified(a.adjacency, model)
    slack = 1e-9 * certificate_scale(model)

    _, trace = random_start_descent(a.adjacency, model, rng)
    assert trace.cost_history[-1] >= bound - slack

    result = template_cluster(a, model, rng)
    final = result.trace.cost_history[-1]
    assert final >= bound - slack
    assert result.lower_bound == pytest.approx(bound, rel=1e-9, abs=slack)
    if certified:
        assert result.trace.iterates_count == 0
        assert result.trace.converged_by == "gradient"
        assert abs(final - bound) <= slack


class TestEigenvectorStart:
    @staticmethod
    def instances(name, seed, tmp_path, monkeypatch):
        if name == "email":
            load_bench_workloads(monkeypatch).write_email_graph(seed, 0, tmp_path)
            g, ids = load_edge_list(tmp_path / "edges-0.txt")
            return g, model_from_ground_truth(g, load_labels(tmp_path / "labels-0.txt", g.n, ids))
        spec = {"g6-40": make_g6(40), "c2-10-0.60": make_c2(10, 0.60), "c2-10-0.42": make_c2(10, 0.42)}[name]
        g, _ = sample_graph(spec, np.random.default_rng(seed))
        return g, expected_model(spec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["g6-40", "c2-10-0.60", "email"])
    def test_certified_start_matches_random_start_descent(self, name, seed, tmp_path, monkeypatch):
        g, model = self.instances(name, seed, tmp_path, monkeypatch)
        p_star, bound = eigenvector_start(g, model)
        assert bound == pytest.approx(interlacing_bound(g.adjacency, model.weights), rel=1e-12)
        assert objective(g.adjacency, model, p_star) <= bound + CERTIFICATE_TOL * certificate_scale(model)
        result = template_cluster(g, model, np.random.default_rng(seed))
        assert result.trace.iterates_count == 0
        assert result.trace.converged_by == "gradient"
        assert np.array_equal(result.embedding.matrix, p_star.matrix)
        p_descent, _ = random_start_descent(g.adjacency, model, np.random.default_rng(100 + seed))
        assert projector_distance(p_star, p_descent) <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saddle_falls_back_to_random_start(self, seed, tmp_path, monkeypatch):
        g, model = self.instances("c2-10-0.42", seed, tmp_path, monkeypatch)
        p_star, bound = eigenvector_start(g, model)
        assert objective(g.adjacency, model, p_star) > bound
        result = template_cluster(g, model, np.random.default_rng(seed))
        assert result.trace.iterates_count > 0
        # the fallback draws its start first, exactly as a plain random start
        _, trace = random_start_descent(g.adjacency, model, np.random.default_rng(seed))
        assert result.trace.cost_history == trace.cost_history
