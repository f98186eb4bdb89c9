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
    block_sums,
    build_graph,
    cnm_cluster,
    degree_matrix,
    load_edge_list,
    louvain_cluster,
    make_c2,
    make_g3,
    make_g6,
    modularity,
    sample_graph,
    spectral_cluster,
)
from templateclust.baselines import spectral_embedding

from conftest import load_bench_workloads, random_simple_graph, two_triangles


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

    @pytest.mark.parametrize(
        "run",
        [
            lambda g: modularity(g, Partition(np.zeros(g.n, dtype=int))),
            cnm_cluster,
            lambda g: louvain_cluster(g, np.random.default_rng(0)),
        ],
        ids=["modularity", "cnm", "louvain"],
    )
    def test_negative_edge_weight_rejected(self, run):
        g = build_graph([(0, 1, -1.0), (1, 2, 2.0)], 3)
        with pytest.raises(InputError, match="got -1.0 between vertices 0 and 1"):
            run(g)

    def test_mismatched_labels_rejected(self):
        g = two_triangles()
        with pytest.raises(InputError, match="labels cover 5 vertices but graph has 6"):
            modularity(g, Partition(np.zeros(g.n - 1, dtype=int)))

    def test_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(30):
            n = int(rng.integers(2, 16))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), k=1) * rng.random((n, n))
            if not upper.any():
                continue
            g = Graph(upper + upper.T)
            labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
            communities = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
            expected = nx.community.modularity(nx.from_numpy_array(g.adjacency), communities)
            assert modularity(g, Partition(labels)) == pytest.approx(expected, abs=1e-12)


def cnm_by_pair_dict(g):
    """Reference CNM: cross-weights in a dict keyed by community pair, every
    pair re-scored in sorted order at each merge, and the dict rebuilt by
    scanning every pair. Ties go to the first best pair in that order."""
    two_m = float(g.adjacency.sum())
    n = g.n
    degrees = degree_matrix(g)
    members = {i: [i] for i in range(n)}
    deg = {i: float(degrees[i]) for i in range(n)}
    cross = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.adjacency[i, j]
            if w > 0:
                cross[(i, j)] = float(w)

    def gain(pair):
        a, b = pair
        return 2.0 * cross[pair] / two_m - 2.0 * deg[a] * deg[b] / (two_m * two_m)

    while cross:
        best_pair = None
        best_gain = 1e-15
        for pair in sorted(cross):
            dq = gain(pair)
            if dq > best_gain:
                best_pair, best_gain = pair, dq
        if best_pair is None:
            break
        a, b = best_pair
        members[a].extend(members.pop(b))
        deg[a] += deg.pop(b)
        merged = {}
        for (u, v), w in list(cross.items()):
            if b in (u, v):
                del cross[(u, v)]
                other = v if u == b else u
                if other != a:
                    merged[other] = merged.get(other, 0.0) + w
        for other, w in merged.items():
            key = (min(a, other), max(a, other))
            cross[key] = cross.get(key, 0.0) + w
        cross.pop((a, a), None)

    labels = np.empty(n, dtype=int)
    for cid, (_, verts) in enumerate(sorted(members.items())):
        labels[verts] = cid
    return Partition(labels)


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

    @pytest.mark.parametrize("weights", ["unit", "integer", "float"])
    def test_matches_pair_dict_reference(self, weights):
        rng = np.random.default_rng(["unit", "integer", "float"].index(weights))
        checked = 0
        while checked < 34:
            n = int(rng.integers(2, 30))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.7), k=1).astype(float)
            if weights == "integer":
                upper *= rng.integers(1, 5, size=(n, n))
            elif weights == "float":
                upper *= rng.random((n, n))
            if not upper.any():
                continue
            g = Graph(upper + upper.T)
            assert np.array_equal(cnm_cluster(g).labels, cnm_by_pair_dict(g).labels)
            checked += 1

    def test_matches_pair_dict_reference_planted_g6(self):
        g, _ = sample_graph(make_g6(40), np.random.default_rng(7))
        assert np.array_equal(cnm_cluster(g).labels, cnm_by_pair_dict(g).labels)

    def test_matches_pair_dict_reference_isolated_vertex_and_self_loop(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)]
        g = build_graph(edges, 7)  # vertex 6 is isolated
        labels = cnm_cluster(g).labels
        assert np.array_equal(labels, cnm_by_pair_dict(g).labels)
        assert labels[6] not in labels[:6]

    def test_underperforms_on_g6(self):
        from templateclust import expected_model, template_cluster

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


def louvain_dense_reference(g, rng):
    """Reference Louvain: each visit scans the vertex's dense adjacency row
    with np.nonzero and accumulates numpy scalars neighbour by neighbour."""

    def local_moving(adj, labels):
        n = adj.shape[0]
        two_m = adj.sum()
        deg = adj.sum(axis=1)
        comm_deg = np.bincount(labels, weights=deg, minlength=n)
        moved = True
        while moved:
            moved = False
            order = rng.permutation(n)
            for i in order:
                ci = labels[i]
                neigh = np.nonzero(adj[i])[0]
                w_to = {}
                for j in neigh:
                    if j == i:
                        continue
                    w_to.setdefault(labels[j], 0.0)
                    w_to[labels[j]] += adj[i, j]
                comm_deg[ci] -= deg[i]

                def insert_gain(c, w):
                    return 2.0 * w / two_m - 2.0 * deg[i] * comm_deg[c] / (two_m * two_m)

                best_c = ci
                best_gain = insert_gain(ci, w_to.get(ci, 0.0))
                for c, w in w_to.items():
                    if c == ci:
                        continue
                    g_c = insert_gain(c, w)
                    if g_c > best_gain + 1e-12:
                        best_c, best_gain = c, g_c
                comm_deg[best_c] += deg[i]
                if best_c != ci:
                    labels[i] = best_c
                    moved = True
        return labels

    adj = g.adjacency.copy()
    assignment = np.arange(g.n)
    prev_q = -np.inf
    while True:
        labels = local_moving(adj, np.arange(adj.shape[0]))
        _, idx = np.unique(labels, return_inverse=True)
        assignment = idx[assignment]
        adj = block_sums(adj, labels)
        two_m = adj.sum()
        q = np.trace(adj) / two_m - np.sum((adj.sum(axis=1) / two_m) ** 2)
        if q <= prev_q + 1e-9:
            break
        prev_q = q
    return Partition(assignment)


def assert_louvain_matches_reference(g, seed):
    labels = louvain_cluster(g, np.random.default_rng(seed)).labels
    assert np.array_equal(labels, louvain_dense_reference(g, np.random.default_rng(seed)).labels)


def email_graph(monkeypatch, tmp_path, index):
    """Planted graph `index` of the benchmark's file workload, as `real` loads it."""
    load_bench_workloads(monkeypatch).write_email_graph(0, index, tmp_path)
    return load_edge_list(tmp_path / f"edges-{index}.txt")[0]


class TestLouvainMatchesDenseReference:
    @pytest.mark.parametrize("weights", ["unit", "integer", "float"])
    def test_random_graphs_with_self_loops(self, weights):
        rng = np.random.default_rng(10 + ["unit", "integer", "float"].index(weights))
        for n in range(2, 40):
            p = rng.uniform(0.05, 0.7)
            edges = []
            for i in range(n):
                for j in range(i, n):
                    # a self-loop on about one vertex in four
                    if rng.random() < (0.25 if i == j else p):
                        if weights == "unit":
                            w = 1.0
                        elif weights == "integer":
                            w = float(rng.integers(1, 5))
                        else:
                            w = rng.random()
                        edges.append((i, j, w))
            g = build_graph(edges, n)
            if g.adjacency.sum() == 0:
                continue
            assert_louvain_matches_reference(g, n)

    def test_isolated_vertex(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)]
        g = build_graph(edges, 7)  # vertex 6 is isolated
        for seed in range(5):
            assert_louvain_matches_reference(g, seed)

    def test_planted_g6(self):
        g, _ = sample_graph(make_g6(40), np.random.default_rng(7))
        for seed in range(3):
            assert_louvain_matches_reference(g, seed)

    def test_email_file_graph(self, monkeypatch, tmp_path):
        assert_louvain_matches_reference(email_graph(monkeypatch, tmp_path, 0), 0)


def median_louvain_modularity(g, nx):
    """Median modularity over rng seeds 0-4 of ours and of networkx's Louvain."""
    ours = [modularity(g, louvain_cluster(g, np.random.default_rng(s))) for s in range(5)]
    graph = nx.from_numpy_array(g.adjacency)
    theirs = []
    for s in range(5):
        labels = np.empty(g.n, dtype=int)
        for c, members in enumerate(nx.community.louvain_communities(graph, seed=s)):
            labels[list(members)] = c
        theirs.append(modularity(g, Partition(labels)))
    return np.median(ours), np.median(theirs)


class TestLouvainMatchesNetworkx:
    @pytest.mark.parametrize(
        "spec", [make_g6(40), make_c2(10, 0.60), make_g3(30)], ids=["g6-40", "c2-10-0.60", "g3-30"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_graphs(self, spec, seed):
        nx = pytest.importorskip("networkx")
        g, _ = sample_graph(spec, np.random.default_rng(seed))
        ours, theirs = median_louvain_modularity(g, nx)
        assert ours == pytest.approx(theirs, abs=0.005)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_email_file_graphs(self, monkeypatch, tmp_path, index):
        nx = pytest.importorskip("networkx")
        ours, theirs = median_louvain_modularity(email_graph(monkeypatch, tmp_path, index), nx)
        assert ours == pytest.approx(theirs, abs=0.005)


def networkx_cnm(g, nx):
    """networkx's greedy modularity communities as a Partition."""
    labels = np.empty(g.n, dtype=int)
    communities = nx.community.greedy_modularity_communities(nx.from_numpy_array(g.adjacency), weight="weight")
    for c, members in enumerate(communities):
        labels[list(members)] = c
    return Partition(labels)


class TestCNMMatchesNetworkx:
    """Same partition as networkx's CNM on these graphs. On larger graphs the
    two can differ by tie-breaking between equal gains, which follows vertex
    order: see ROADMAP item 5."""

    @pytest.mark.parametrize(
        "spec", [make_g6(40), make_c2(10, 0.60), make_g3(30)], ids=["g6-40", "c2-10-0.60", "g3-30"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_graphs(self, spec, seed):
        nx = pytest.importorskip("networkx")
        g, _ = sample_graph(spec, np.random.default_rng(seed))
        assert np.array_equal(cnm_cluster(g).labels, networkx_cnm(g, nx).labels)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_email_file_graphs(self, monkeypatch, tmp_path, index):
        nx = pytest.importorskip("networkx")
        g = email_graph(monkeypatch, tmp_path, index)
        assert np.array_equal(cnm_cluster(g).labels, networkx_cnm(g, nx).labels)


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
