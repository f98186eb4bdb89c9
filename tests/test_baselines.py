import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from templateclust import (
    Graph,
    InputError,
    Partition,
    adjusted_rand_index,
    build_graph,
    cnm_cluster,
    louvain_cluster,
    modularity,
    spectral_cluster,
)
from templateclust.baselines import spectral_embedding

from conftest import random_simple_graph, two_triangles


def best_partition_exhaustive(g):
    """Search all partitions of up to n clusters for the max-modularity one."""
    n = g.n
    best_q = -np.inf
    best = None
    # enumerate set partitions via restricted growth strings
    def rgs(prefix, m):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(m + 1):
            yield from rgs(prefix + [c], max(m, c + 1))

    for labels in rgs([0], 1):
        q = modularity(g, Partition(np.array(labels)))
        if q > best_q:
            best_q, best = q, labels
    return np.array(best), best_q


class TestSpectral:
    def test_two_triangles(self, rng):
        g = two_triangles()
        # disconnected components: Laplacian has a two-dimensional kernel
        evals = np.linalg.eigvalsh(
            np.diag(g.adjacency.sum(1)) - g.adjacency
        )
        assert evals[0] == pytest.approx(0.0, abs=1e-12)
        assert evals[1] == pytest.approx(0.0, abs=1e-12)
        part = spectral_cluster(g, 2, rng)
        assert adjusted_rand_index(part.labels, [0, 0, 0, 1, 1, 1]) == pytest.approx(1.0)

    def test_complete_graph_single_cluster(self, rng):
        adj = np.ones((4, 4)) - np.eye(4)
        part = spectral_cluster(Graph(adj), 1, rng)
        assert part.k_found == 1

    def test_bipartite_failure_mode(self):
        # complete bipartite: spectral ARI expected near 0; record only
        adj = np.zeros((8, 8))
        adj[:4, 4:] = 1.0
        adj[4:, :4] = 1.0
        part = spectral_cluster(Graph(adj), 2, np.random.default_rng(3))
        ari = adjusted_rand_index(part.labels, [0] * 4 + [1] * 4)
        assert -1.0 <= ari <= 1.0  # no exact value asserted

    def test_deterministic(self, rng):
        g = random_simple_graph(12, rng)
        a = spectral_cluster(g, 3, np.random.default_rng(1))
        b = spectral_cluster(g, 3, np.random.default_rng(1))
        assert np.array_equal(a.labels, b.labels)

    def test_embedding_orthonormal(self, rng):
        g = random_simple_graph(10, rng)
        p = spectral_embedding(g, 3)
        assert np.linalg.norm(p.matrix.T @ p.matrix - np.eye(3)) <= 1e-10

    def test_k_too_large(self, rng):
        with pytest.raises(InputError):
            spectral_cluster(two_triangles(), 7, rng)


class TestModularity:
    def test_all_in_one_is_zero(self, rng):
        for _ in range(10):
            g = random_simple_graph(int(rng.integers(3, 10)), rng)
            if g.total_edge_weight() == 0:
                continue
            q = modularity(g, Partition(np.zeros(g.n, dtype=int)))
            assert q == pytest.approx(0.0, abs=1e-12)

    def test_two_k2_edges(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)], 4)
        q = modularity(g, Partition(np.array([0, 0, 1, 1])))
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_two_triangles_true_split(self):
        q = modularity(two_triangles(), Partition(np.array([0, 0, 0, 1, 1, 1])))
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_relabel_invariant(self, rng):
        g = random_simple_graph(8, rng, p=0.6)
        labels = rng.integers(0, 3, size=8)
        q1 = modularity(g, Partition(labels))
        q2 = modularity(g, Partition((labels + 1) % 3))
        assert q1 == pytest.approx(q2, abs=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            modularity(build_graph([], 3), Partition(np.zeros(3, dtype=int)))


class TestCNM:
    def test_two_triangles_optimal(self):
        g = two_triangles()
        part = cnm_cluster(g)
        _, best_q = best_partition_exhaustive(g)
        assert best_q == pytest.approx(0.5, abs=1e-12)
        assert part.k_found == 2
        assert modularity(g, part) == pytest.approx(best_q, abs=1e-12)

    def test_single_edge_not_worse_than_singletons(self):
        g = build_graph([(0, 1, 1.0)], 2)
        part = cnm_cluster(g)
        q_single = modularity(g, Partition(np.arange(2)))
        assert modularity(g, part) >= q_single - 1e-12

    def test_never_below_singletons(self, rng):
        for _ in range(10):
            g = random_simple_graph(int(rng.integers(4, 12)), rng)
            if g.total_edge_weight() == 0:
                continue
            part = cnm_cluster(g)
            assert modularity(g, part) >= modularity(g, Partition(np.arange(g.n))) - 1e-12

    def test_underperforms_on_g6(self):
        from templateclust import expected_model, make_g6, sample_graph, template_cluster

        spec = make_g6(10)
        model = expected_model(spec)
        tb_aris, cnm_aris = [], []
        for s in range(20):
            g, gt = sample_graph(spec, np.random.default_rng(700 + s))
            res = template_cluster(g, model, rng=np.random.default_rng(800 + s))
            tb_aris.append(adjusted_rand_index(res.partition, gt.labels))
            cnm_aris.append(adjusted_rand_index(cnm_cluster(g).labels, gt.labels))
        assert np.mean(tb_aris) > np.mean(cnm_aris)


class TestLouvain:
    def test_two_triangles(self, rng):
        g = two_triangles()
        part = louvain_cluster(g, rng)
        assert part.k_found == 2
        assert modularity(g, part) == pytest.approx(0.5, abs=1e-12)

    def test_complete_k5_single_community(self, rng):
        adj = np.ones((5, 5)) - np.eye(5)
        g = Graph(adj)
        # exhaustive check: no split beats the single community
        _, best_q = best_partition_exhaustive(g)
        assert best_q == pytest.approx(0.0, abs=1e-12)
        part = louvain_cluster(g, rng)
        assert part.k_found == 1

    def test_never_below_singletons(self, rng):
        for _ in range(10):
            g = random_simple_graph(int(rng.integers(4, 12)), rng)
            if g.total_edge_weight() == 0:
                continue
            part = louvain_cluster(g, rng)
            assert modularity(g, part) >= modularity(g, Partition(np.arange(g.n))) - 1e-12


def test_all_methods_recover_two_cliques(rng):
    # two disconnected K4 cliques
    adj = np.zeros((8, 8))
    adj[:4, :4] = 1.0
    adj[4:, 4:] = 1.0
    np.fill_diagonal(adj, 0.0)
    g = Graph(adj)
    truth = [0] * 4 + [1] * 4
    assert adjusted_rand_index(spectral_cluster(g, 2, rng).labels, truth) == 1.0
    assert adjusted_rand_index(cnm_cluster(g).labels, truth) == 1.0
    assert adjusted_rand_index(louvain_cluster(g, rng).labels, truth) == 1.0


def test_partition_canonicalization():
    part = Partition(np.array([5, 5, 2, 7, 2]))
    assert np.array_equal(part.labels, [0, 0, 1, 2, 1])
    assert part.k_found == 3


def canonical_by_loop(raw):
    """Reference relabelling: each new label gets the next id in order of
    first appearance."""
    mapping = {}
    out = []
    for lab in raw:
        mapping.setdefault(lab, len(mapping))
        out.append(mapping[lab])
    return out, len(mapping)


@given(st.lists(st.integers(-5, 40), min_size=1, max_size=60))
def test_partition_matches_loop_oracle(raw):
    labels, k_found = canonical_by_loop(raw)
    part = Partition(np.array(raw))
    assert part.labels.tolist() == labels
    assert part.k_found == k_found
