import copy
import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from templateclust import (
    CommunitySpec,
    Graph,
    InputError,
    NumericalError,
    Partition,
    adjusted_rand_index,
    block_sums,
    build_graph,
    cnm_cluster,
    degree_matrix,
    louvain_cluster,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    modularity,
    sample_graph,
    spectral_cluster,
)
from templateclust import baselines, graphs
from templateclust.baselines import _cnm_merges, spectral_embedding
from templateclust.cli import main

from conftest import LABEL_FORMS, edge_weight, email_graph, random_simple_graph, traced_peak, two_triangles


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
        b = spectral_cluster(Graph(g.adjacency), 3, np.random.default_rng(1))  # a fresh graph: no memo hit
        assert np.array_equal(a.labels, b.labels)

    def test_embedding_orthonormal(self, rng):
        g = random_simple_graph(10, rng)
        p = spectral_embedding(g, 3)
        assert np.linalg.norm(p.matrix.T @ p.matrix - np.eye(3)) <= 1e-10

    def test_k_too_large(self, rng):
        with pytest.raises(InputError):
            spectral_cluster(two_triangles(), 7, rng)

    @pytest.mark.parametrize("name", ["g6-40", "c2-10-0.60", "bp-10-0.4-hub", "email"])
    def test_draws_nothing_and_follows_a_relabelling(self, name, tmp_path, monkeypatch):
        """Spectral rounds as tb does, by pivoted-QR seeds and one Lloyd run:
        it leaves its rng as it found it, and a graph whose vertices are
        relabelled gets the relabelled partition, in Partition's canonical
        labels."""
        if name == "email":
            g, gt = email_graph(monkeypatch, tmp_path, 3, 0)
            cases = [(g, gt.k)]
        else:
            spec = {
                "g6-40": make_g6(40),
                "c2-10-0.60": make_c2(10, 0.60),
                "bp-10-0.4-hub": make_bp(10, 0.4, "hub"),
            }[name]
            cases = [(sample_graph(spec, np.random.default_rng((5, s)))[0], spec.k) for s in range(5)]
        for g, k in cases:
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            part = spectral_cluster(g, k, rng)
            assert rng.bit_generator.state == state
            perm = np.random.default_rng(11).permutation(g.n)
            moved = spectral_cluster(Graph(g.adjacency[np.ix_(perm, perm)]), k, rng)
            assert np.array_equal(Partition(part.labels[perm]).labels, moved.labels)

    @pytest.mark.parametrize(
        "grid",
        [["--family", "c2", "--sizes", "60", "--probs", "0.3,0.6"], ["--family", "g6", "--sizes", "40"]],
        ids=["c2-60", "g6-40"],
    )
    def test_spectral_rows_equal_the_dense_paths(self, tmp_path, monkeypatch, grid):
        """These graphs pass the Laplacian's size rules and the kernel proves
        every one. k-means sees only distances between rows, which a rotation
        of the frame keeps, so every column of records.csv equals the dense
        path's but projector_distance, which moves in the last digits."""
        proved = []
        kernel = graphs.extremal_pairs

        def proving(*args):
            pairs = kernel(*args)
            proved.append(pairs is not None)
            return pairs

        monkeypatch.setattr(graphs, "extremal_pairs", proving)
        argv = ["synth", *grid, "--reps", "2", "--methods", "spectral"]
        assert main(argv + ["--out", str(tmp_path / "kernel")]) == 0
        monkeypatch.setattr(graphs, "KERNEL_LONG_RUN_VERTICES", 10**9)
        assert main(argv + ["--out", str(tmp_path / "dense")]) == 0
        kernel_rows, dense_rows = (
            list(csv.DictReader((tmp_path / d / "records.csv").read_text().splitlines())) for d in ("kernel", "dense")
        )
        assert all(proved) and len(proved) == len(kernel_rows) == len(dense_rows)  # one proved run per graph
        for ours, theirs in zip(kernel_rows, dense_rows):
            pd = "projector_distance"
            assert abs(float(ours.pop(pd)) - float(theirs.pop(pd))) <= 1e-11
            assert ours == theirs


class TestModularity:
    def test_all_in_one_is_zero(self, rng):
        for _ in range(10):
            g = random_simple_graph(int(rng.integers(3, 10)), rng)
            if edge_weight(g) == 0:
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


def cnm_dense_reference(g):
    """Reference CNM: gains of joined pairs a < b in a dense matrix, -inf
    elsewhere, and each merge takes the matrix's row-major first maximum,
    which is the lexicographically smallest best pair."""
    two_m = float(g.adjacency.sum())
    n = g.n
    deg = degree_matrix(g)
    cross = np.where(g.adjacency > 0, g.adjacency, 0.0)

    def gain(w, d_a, d_b):
        dq = 2.0 * w / two_m - 2.0 * d_a * d_b / (two_m * two_m)
        return np.where(w > 0, dq, -np.inf)

    gains = np.full((n, n), -np.inf)
    upper = np.triu_indices(n, k=1)
    gains[upper] = gain(cross[upper], deg[upper[0]], deg[upper[1]])
    root = np.arange(n)
    while True:
        a, b = divmod(int(np.argmax(gains)), n)
        if not gains[a, b] > 1e-15:
            break
        root[root == b] = a
        deg[a] += deg[b]
        cross[a] += cross[b]
        cross[b] = 0.0
        cross[:, b] = 0.0
        cross[:, a] = cross[a]
        gains[b] = -np.inf
        gains[:, b] = -np.inf
        gains[a, a + 1 :] = gain(cross[a, a + 1 :], deg[a], deg[a + 1 :])
        gains[:a, a] = gain(cross[:a, a], deg[:a], deg[a])
    return Partition(root)


def assert_cnm_matches_references(g):
    labels = cnm_cluster(g).labels
    assert np.array_equal(labels, cnm_dense_reference(g).labels)
    assert np.array_equal(labels, cnm_by_pair_dict(g).labels)
    return labels


@st.composite
def integer_weight_graphs(draw):
    """Symmetric graphs with weights in 0..3, self-loops and isolated
    vertices, on which equal modularity gains are common."""
    n = draw(st.integers(2, 25))
    density = draw(st.floats(0.05, 0.9))
    isolated = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density) * rng.integers(1, 4, size=(n, n))
    upper[:, rng.integers(n, size=isolated)] = 0
    upper[rng.integers(n, size=isolated)] = 0
    return Graph(upper + np.triu(upper, k=1).T)


@st.composite
def float_weight_graphs(draw):
    """Symmetric graphs with float edge weights in (0, 1], self-loops of
    weight 0.5 to 8, which CNM must leave out of every pair's cross-weight,
    and isolated vertices."""
    n = draw(st.integers(2, 25))
    density = draw(st.floats(0.05, 0.9))
    isolated = draw(st.integers(0, 3))
    loops = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, k=1) * (1.0 - rng.random((n, n)))
    upper[np.diag_indices(n)] = (rng.random(n) < loops) * rng.uniform(0.5, 8.0, size=n)
    upper[:, rng.integers(n, size=isolated)] = 0.0
    upper[rng.integers(n, size=isolated)] = 0.0
    return Graph(upper + np.triu(upper, k=1).T)


@st.composite
def rescaled_weight_graphs(draw):
    """A graph of `integer_weight_graphs` or `float_weight_graphs` with every
    weight multiplied by 2^e, where e puts (2m)^2 anywhere from just above
    underflow to just below overflow, both ends drawn often. Every scaled
    weight stays a normal number, so 2m scales exactly."""
    g = draw(st.one_of(integer_weight_graphs(), float_weight_graphs()))
    two_m = float(g.adjacency.sum())
    assume(two_m > 0)
    scales = [e for e in range(-600, 600) if 0.0 < math.ldexp(two_m, e) * math.ldexp(two_m, e) < math.inf]
    e = draw(st.one_of(st.sampled_from(scales[:3] + scales[-3:]), st.sampled_from(scales)))
    return Graph(np.ldexp(g.adjacency, e))


def relabelled_aris(cluster, graph_seed=23, runs=40):
    """ARIs against the planted labels of `cluster(graph, rng)` on the
    c2/10/0.42 graph of `graph_seed`, run on `runs` relabellings (the
    permutation of seed s) and on the graph itself, with rng seed (s, 1)."""
    g, gt = sample_graph(make_c2(10, 0.42), np.random.default_rng(graph_seed))
    relabelled, original = [], []
    for s in range(runs):
        perm = np.random.default_rng(s).permutation(g.n)
        h = Graph(g.adjacency[np.ix_(perm, perm)])
        relabelled.append(adjusted_rand_index(cluster(h, np.random.default_rng((s, 1))).labels, gt.labels[perm]))
        original.append(adjusted_rand_index(cluster(g, np.random.default_rng((s, 1))).labels, gt.labels))
    return np.array(relabelled), np.array(original)


def standard_error(x):
    return x.std(ddof=1) / math.sqrt(x.size)


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
            if edge_weight(g) == 0:
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
            assert_cnm_matches_references(g)
            checked += 1

    def test_matches_pair_dict_reference_planted_g6(self):
        g, _ = sample_graph(make_g6(40), np.random.default_rng(7))
        assert_cnm_matches_references(g)

    def test_matches_references_planted_email_style(self):
        rates = np.full((12, 12), 0.005)
        np.fill_diagonal(rates, 0.3)
        g, _ = sample_graph(CommunitySpec((16,) * 12, rates), np.random.default_rng(3))
        assert_cnm_matches_references(g)

    def test_matches_pair_dict_reference_isolated_vertex_and_self_loop(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)]
        g = build_graph(edges, 7)  # vertex 6 is isolated
        labels = assert_cnm_matches_references(g)
        assert labels[6] not in labels[:6]

    @settings(max_examples=150, deadline=None)
    @given(integer_weight_graphs())
    def test_matches_dense_reference_with_ties(self, g):
        assume(g.adjacency.sum() > 0)
        assert np.array_equal(cnm_cluster(g).labels, cnm_dense_reference(g).labels)

    @settings(max_examples=150, deadline=None)
    @given(float_weight_graphs())
    def test_matches_references_float_weights_and_self_loops(self, g):
        assume(g.adjacency.sum() > 0)  # a graph of self-loops alone stays singletons
        assert_cnm_matches_references(g)

    @settings(max_examples=150, deadline=None)
    @given(rescaled_weight_graphs())
    def test_matches_references_near_the_gain_scale_limits(self, g):
        # a row of gains divides by 2m/2 where the references multiply by 2
        # and divide by 2m; both give the same bits wherever (2m)^2 is finite
        # and nonzero, subnormal (2m)^2 and degree terms included. The dense
        # reference's 2 d_a d_b can overflow in an absorbed column, which it
        # then discards; cnm_cluster must not warn
        with np.errstate(over="ignore"):
            reference = cnm_dense_reference(g).labels
        labels = cnm_cluster(g).labels
        assert np.array_equal(labels, reference)
        assert np.array_equal(labels, cnm_by_pair_dict(g).labels)

    def test_top_of_the_gain_scale_merges_without_a_warning(self):
        # (2m)^2 is 1.37e308; the merged community's degree is 2m, so its
        # 2 d_a d_a overflows on the diagonal, where the cross-weight is -inf
        w = 5.02792797e153
        g = Graph(np.array([[0.0, w], [w, w / 3]]))
        assert cnm_cluster(g).labels.tolist() == [0, 0]

    def test_merge_loop_holds_one_n_by_n_array(self):
        # the cross-weights are the loop's one n x n float array: rows of
        # gains are computed when read, and the row maxima a block at a time
        g, _ = sample_graph(make_g6(200), np.random.default_rng(0))
        _, peak = traced_peak(lambda: _cnm_merges(g))
        assert peak <= 1.5 * g.n * g.n * 8

    def test_tied_pairs_go_to_the_lexicographically_smallest(self):
        # path 0-1-2-3-4: once {0, 1} and {3, 4} have formed, vertex 2 gains
        # exactly 1/16 by joining either; the pair (0, 2) comes before (2, 3),
        # and taking (2, 3) instead would give [0, 0, 1, 1, 1]
        g = build_graph([(i, i + 1, 1.0) for i in range(4)], 5)
        assert cnm_cluster(g).labels.tolist() == [0, 0, 0, 1, 1]

    def test_tie_after_a_merge_raised_another_rows_gain(self):
        # merging 5 into 2 raises (0, 2) above row 0's earlier best gain;
        # after 4 joins 3, the pairs (0, 2), (0, 3), (1, 2) and (1, 3) tie at
        # 32/(2m)^2, and (0, 2) is merged only if row 0's bound was raised
        edges = [(0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0), (1, 2, 2.0)]
        edges += [(1, 3, 2.0), (2, 3, 1.0), (2, 5, 2.0), (3, 4, 2.0)]
        g = build_graph(edges, 6)
        assert cnm_cluster(g).labels.tolist() == [0, 1, 0, 1, 1, 0]

    def test_tied_gains_are_divided_by_half_of_2m(self):
        # 2m = 1.6: (0, 1) and (1, 2) both gain exactly 1/16 as
        # w/(2m/2) - 2 d_a d_b/(2m)^2, and the tie goes to (0, 1). With the
        # reciprocal, 0.3 * (1/0.8) rounds one ulp above 0.3/0.8, and merging
        # (1, 2) first would give [0, 1, 1]
        g = build_graph([(0, 1, 0.1), (1, 2, 0.3), (0, 0, 0.1), (2, 2, 0.7)], 3)
        assert cnm_cluster(g).labels.tolist() == [0, 0, 1]

    def test_relabelling_is_equivariant_only_in_distribution(self):
        # the tie rule favours the smallest ids, so on this c2/10/0.42 graph
        # the relabelled graph breaks a tie between two pairs the other way
        g, _ = sample_graph(make_c2(10, 0.42), np.random.default_rng(23))
        perm = np.random.default_rng(23).permutation(g.n)
        relabelled = cnm_cluster(Graph(g.adjacency[np.ix_(perm, perm)])).labels
        assert not np.array_equal(relabelled, Partition(cnm_cluster(g).labels[perm]).labels)

    @pytest.mark.xfail(strict=True, reason="the graph's own labelling breaks a tie the way 1 of 40 relabellings do")
    def test_relabelled_mean_ari_matches_the_original(self):
        # relabelled mean 0.6957 (SE 0.0020) against 0.6169 on the graph's
        # own labelling: 39 of 40 relabellings give 0.6977. CNM draws
        # nothing, so its one run on the graph is one draw over labellings,
        # and one draw need not lie within the SE of the mean
        relabelled, original = relabelled_aris(lambda g, rng: cnm_cluster(g))
        assert abs(relabelled.mean() - original[0]) <= 3 * standard_error(relabelled)

    def test_planted_order_does_not_bias_ari(self):
        # per graph, the ARI on the planted order minus the mean over 10
        # relabellings: -0.0018 (SE 0.0020) over graph seeds 0-39
        gaps = []
        for graph_seed in range(40):
            relabelled, original = relabelled_aris(lambda g, rng: cnm_cluster(g), graph_seed, runs=10)
            gaps.append(original[0] - relabelled.mean())
        gaps = np.array(gaps)
        assert abs(gaps.mean()) <= 3 * standard_error(gaps)

    @pytest.mark.parametrize("weight", [1e155, 1e-165])
    def test_gain_scale_out_of_range_rejected(self, weight):
        g = build_graph([(0, 1, weight), (1, 2, weight), (3, 4, weight)], 5)
        with pytest.raises(NumericalError, match=r"\(2m\)\^2 finite and nonzero"):
            cnm_cluster(g)

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
            if edge_weight(g) == 0:
                continue
            part = louvain_cluster(g, rng)
            assert modularity(g, part) >= modularity(g, Partition(np.arange(g.n))) - 1e-12

    @pytest.mark.parametrize("weight", [1e155, 1e-165])
    def test_gain_scale_out_of_range_rejected(self, rng, weight):
        # two triangles joined by an edge: unit weights give [0 0 0 1 1 1]
        g = build_graph([(0, 1, weight), (0, 2, weight), (1, 2, weight), (2, 3, weight),
                         (3, 4, weight), (3, 5, weight), (4, 5, weight)], 6)
        with pytest.raises(NumericalError, match=r"\(2m\)\^2 finite and nonzero"):
            louvain_cluster(g, rng)

    def test_relabelled_mean_ari_matches_the_original_runs(self):
        # every one of the 80 runs scores 0.6977, so both SEs are 0
        relabelled, original = relabelled_aris(louvain_cluster)
        combined = math.hypot(standard_error(relabelled), standard_error(original))
        assert abs(relabelled.mean() - original.mean()) <= 3 * combined

    def test_lists_built_once_per_graph(self, monkeypatch):
        # a later phase lists its aggregate, a new matrix, on every call
        g, _ = sample_graph(make_g6(40), np.random.default_rng(3))
        built, neighbour_lists = [], baselines._neighbour_lists

        def counting(adj):
            built.append(adj is g.adjacency)
            return neighbour_lists(adj)

        monkeypatch.setattr(baselines, "_neighbour_lists", counting)
        first = louvain_cluster(g, np.random.default_rng(0))
        kept = copy.deepcopy(g.memo("neighbour lists", lambda: None))
        second = louvain_cluster(g, np.random.default_rng(1))
        assert built.count(True) == 1
        assert g.memo("neighbour lists", lambda: None) == kept == neighbour_lists(g.adjacency)
        for seed, part in [(0, first), (1, second)]:
            fresh = louvain_cluster(Graph(g.adjacency), np.random.default_rng(seed))
            assert np.array_equal(part.labels, fresh.labels)

    def test_rejected_graph_lists_nothing_and_raises_again(self, rng, monkeypatch):
        built = []
        monkeypatch.setattr(baselines, "_neighbour_lists", built.append)
        g = build_graph([(0, 1, 1e155), (1, 2, 1e155)], 3)
        for _ in range(2):
            with pytest.raises(NumericalError, match=r"\(2m\)\^2 finite and nonzero"):
                louvain_cluster(g, rng)
        assert built == []

    def test_phase_that_moves_nothing_ends_the_loop(self, monkeypatch):
        # phase 1 finds the triangles; phase 2 on their 2-vertex aggregate,
        # which has no edge between the two, moves nothing. The reference
        # still aggregates it, and stops only when modularity repeats
        calls = {"ours": 0, "reference": 0}

        def counting(who, sums=block_sums):
            def count(adj, labels):
                calls[who] += 1
                return sums(adj, labels)
            return count

        monkeypatch.setattr(baselines, "block_sums", counting("ours"))
        monkeypatch.setitem(globals(), "block_sums", counting("reference"))
        for seed in range(5):
            assert_louvain_matches_reference(two_triangles(), seed)
        assert calls == {"ours": 5, "reference": 10}

    def test_phase_that_barely_raises_modularity_ends_the_loop(self, monkeypatch):
        """A ring of 8 unit triangles joined by bridges of weight 1 + 1e-9.
        Phase 1 finds the triangles. Merging two ring neighbours gains
        (2/2m)(x - d/8) = 0.75e-9/32 of modularity, so phase 2 merges some of
        them in pairs, and its total gain, under 1e-10, stops the loop with
        the pairs kept."""
        qs = []
        modularity_from_adj = baselines._modularity_from_adj

        def recording(agg):
            qs.append(modularity_from_adj(agg))
            return qs[-1]

        monkeypatch.setattr(baselines, "_modularity_from_adj", recording)
        ring = [
            edge
            for t in range(0, 24, 3)
            for edge in ((t, t + 1, 1.0), (t, t + 2, 1.0), (t + 1, t + 2, 1.0), (t + 2, (t + 3) % 24, 1 + 1e-9))
        ]
        for seed in range(5):
            qs.clear()
            labels = louvain_cluster(build_graph(ring, 24), np.random.default_rng(seed)).labels
            assert len(qs) == 2 and 0 < qs[1] - qs[0] <= 1e-9
            triangles = labels[::3]
            assert np.array_equal(labels, np.repeat(triangles, 3))
            sizes = np.bincount(triangles)
            assert sizes.max() == 2  # ring neighbours merged in pairs, none in threes
            neighbours = zip(np.roll(triangles, 1), np.roll(triangles, -1))
            assert all(sizes[c] == 1 or c in pair for c, pair in zip(triangles, neighbours))


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
    """Same labels, and the rng left in the same state, so the two also made
    the same number of passes and phases."""
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(louvain_cluster(g, ours).labels, louvain_dense_reference(g, ref).labels)
    assert ours.bit_generator.state == ref.bit_generator.state


@st.composite
def louvain_graphs(draw):
    """Symmetric graphs with unit, integer or float weights, self-loops and
    isolated vertices. Sparse ones take several passes per phase, in which
    visits reuse the community weights that an earlier pass built."""
    n = draw(st.integers(2, 30))
    density = draw(st.floats(0.03, 0.6))
    isolated = draw(st.integers(0, 3))
    loops = draw(st.floats(0.0, 0.5))
    weights = draw(st.sampled_from(["unit", "integer", "float"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density).astype(float)
    upper[np.diag_indices(n)] = rng.random(n) < loops
    if weights == "integer":
        upper *= rng.integers(1, 5, size=(n, n))
    elif weights == "float":
        upper *= 1.0 - rng.random((n, n))
    upper[:, rng.integers(n, size=isolated)] = 0.0
    upper[rng.integers(n, size=isolated)] = 0.0
    return Graph(upper + np.triu(upper, k=1).T)


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

    @settings(max_examples=200, deadline=None)
    @given(louvain_graphs(), st.integers(0, 2**32 - 1))
    def test_matches_dense_reference_property(self, g, seed):
        assume(g.adjacency.sum() > 0)
        assert_louvain_matches_reference(g, seed)

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
        assert_louvain_matches_reference(email_graph(monkeypatch, tmp_path, 0, 0)[0], 0)


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
        ours, theirs = median_louvain_modularity(email_graph(monkeypatch, tmp_path, 0, index)[0], nx)
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
        g, _ = email_graph(monkeypatch, tmp_path, 0, index)
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


@given(st.lists(st.integers(-5, 40), min_size=1, max_size=60), st.sampled_from(sorted(LABEL_FORMS)))
def test_partition_matches_loop_oracle(raw, form):
    labels, k_found = canonical_by_loop(raw)
    part = Partition(LABEL_FORMS[form](raw))
    assert part.labels.tolist() == labels
    assert part.k_found == k_found


@pytest.mark.parametrize("form, calls", [("counted", 0), ("negative", 1), ("sparse", 1), ("int64", 1)])
def test_partition_counts_labels_in_range(unique_calls, form, calls):
    raw = [6, 6, 2, 0, 2, 6, 5]  # sparse within [0, 7): counted all the same
    part = Partition(LABEL_FORMS[form](raw))
    assert part.labels.tolist() == [0, 0, 1, 2, 1, 0, 3] and part.k_found == 4
    assert len(unique_calls) == calls
