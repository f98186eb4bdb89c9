import importlib.util
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from templateclust import (
    DescentConfig,
    InputError,
    StiefelPoint,
    TemplateModel,
    adjusted_rand_index,
    euclidean_gradient,
    expected_model,
    kmeans,
    load_edge_list,
    load_labels,
    make_g6,
    model_from_ground_truth,
    objective,
    random_stiefel,
    sample_graph,
    template_cluster,
)
from templateclust.baselines import spectral_embedding
from templateclust.template import _kmeans_pp_init, _lloyd

from conftest import random_simple_graph, two_triangles


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


def kmeans_by_cluster_loop(points, k, rng, restarts=10, max_iters=300):
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        labels, inertia = lloyd_by_cluster_loop(points, _kmeans_pp_init(points, k, rng), max_iters)
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
        labels, _ = _lloyd(points, np.array([[0.0], [2.0]]), max_iters=1)
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
        labels, inertia = _lloyd(points, np.array([[1.0], [60.0], [1000.0]]), max_iters=1)
        assert np.array_equal(labels, [2, 0, 0, 1])
        assert inertia == pytest.approx(0.5)


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
