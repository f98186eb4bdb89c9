"""Each graph matrix is factored once, its end pairs tried on the Lanczos
kernel at most once, and CNM's partition computed once, on the graph that
owns them.

`Graph.memo` stores values derived from an immutable graph.
`Graph.end_pairs` keeps the dense eigendecompositions of the adjacency and
the Laplacian through it, so a spectral repetition, every repetition and
noise level of a `real` grid, and every repetition of a `--fixed-graph`
point reuse one factorization; `cnm_cluster` memoizes its partition the
same way, and `spectral_cluster` its partition for each k. `Graph.end_pairs`
also stores the kernel's proved pairs, and once a graph holds a matrix's
dense factors, or has tried the kernel on it, it slices the dense factors
without a kernel try.
`tests/test_source_rules.py` keeps eigensolver and kernel calls out of the
rest of the package.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    Graph,
    InputError,
    NumericalError,
    TemplateModel,
    build_graph,
    cnm_cluster,
    expected_model,
    laplacian,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    sample_graph,
    spectral_cluster,
    template_cluster,
)
from templateclust import baselines, graphs, harness
from templateclust.cli import main
from templateclust.harness import run_method

from conftest import random_simple_graph

# numpy built without its bundled OpenBLAS has no subset driver to bind, and
# every request the driver would serve is factored densely
NO_DRIVER = graphs._subset_driver() is None


@pytest.fixture
def factored(monkeypatch):
    """Orders of the matrices passed to np.linalg.eigh, in call order."""
    orders = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return orders


@pytest.fixture
def kernel_runs(monkeypatch):
    """Orders of the matrices the Lanczos kernel ran on, in call order."""
    orders = []
    kernel = graphs.extremal_pairs

    def counting(m, bottom, top, limits=None):
        orders.append(m.shape[0])
        return kernel(m, bottom, top, limits)

    monkeypatch.setattr(graphs, "extremal_pairs", counting)
    return orders


@pytest.fixture
def subset_runs(monkeypatch):
    """Orders of the matrices LAPACK's subset driver ran on, in call order."""
    orders = []
    subset = graphs.subset_pairs

    def counting(m, bottom, top):
        orders.append(m.shape[0])
        return subset(m, bottom, top)

    monkeypatch.setattr(graphs, "subset_pairs", counting)
    return orders


@pytest.fixture
def laplacians(monkeypatch):
    """Graphs whose Laplacian the spectral baseline built, in call order."""
    built = []

    def counting(g):
        built.append(g)
        return laplacian(g)

    monkeypatch.setattr(baselines, "laplacian", counting)
    return built


@pytest.fixture
def frames(monkeypatch):
    """Row counts of the frames the spectral baseline validated, in call order."""
    built = []
    point = baselines.StiefelPoint

    def counting(matrix):
        built.append(matrix.shape[0])
        return point(matrix)

    monkeypatch.setattr(baselines, "StiefelPoint", counting)
    return built


@pytest.fixture
def streams(monkeypatch):
    """Methods the harness built a random stream for, in call order."""
    built = []
    method_rng = harness.method_rng

    def counting(seed, point_idx, rep, method):
        rng = method_rng(seed, point_idx, rep, method)
        if rng is not None:
            built.append(method)
        return rng

    monkeypatch.setattr(harness, "method_rng", counting)
    return built


@pytest.fixture
def merged(monkeypatch):
    """Graphs on which CNM's merge loop ran, in call order."""
    ran = []
    merges = baselines._cnm_merges

    def counting(g):
        ran.append(g)
        return merges(g)

    monkeypatch.setattr(baselines, "_cnm_merges", counting)
    return ran


@pytest.fixture
def rounded(monkeypatch):
    """Row counts of the embeddings the spectral baseline rounded, in call order."""
    rows = []
    rounding = baselines.kmeans

    def counting(points, k):
        rows.append(points.shape[0])
        return rounding(points, k)

    monkeypatch.setattr(baselines, "kmeans", counting)
    return rows


class TestGraphMemo:
    def test_computes_on_the_first_request_only(self, rng):
        g = random_simple_graph(5, rng)
        calls = []

        def compute():
            calls.append(1)
            return object()

        first = g.memo("value", compute)
        assert g.memo("value", compute) is first and calls == [1]

    def test_stores_nothing_when_compute_raises(self, rng):
        g = random_simple_graph(5, rng)

        def fail():
            raise InputError("not this time")

        for _ in range(2):
            with pytest.raises(InputError, match="not this time"):
                g.memo("value", fail)
        assert g.memo("value", lambda: 3) == 3

    def test_eigh_keys_do_not_collide_with_other_keys(self, rng):
        g = random_simple_graph(6, rng)
        for key, build in (("adjacency", lambda: g.adjacency), ("laplacian", lambda: laplacian(g))):
            assert g.memo(key, lambda: "mine") == "mine"
            evals, _ = g.end_pairs(key, build, 3, 3)
            assert np.array_equal(evals, np.linalg.eigh(build())[0])
            assert g.memo(key, lambda: "other") == "mine"


class TestCNMMemo:
    def test_merge_loop_runs_once_per_graph(self, rng, merged):
        g = random_simple_graph(10, rng)
        first = cnm_cluster(g)
        assert cnm_cluster(g) is first and merged == [g]
        assert not first.labels.flags.writeable

    def test_graphs_with_equal_adjacency_compute_their_own(self, rng, merged):
        a = random_simple_graph(10, rng)
        b = Graph(a.adjacency.copy())
        assert np.array_equal(cnm_cluster(a).labels, cnm_cluster(b).labels)
        assert merged == [a, b]

    @pytest.mark.parametrize(
        "edges, error",
        [([], InputError), ([(0, 1, 1e155), (1, 2, 1e155)], NumericalError)],
        ids=["edgeless", "gain-scale-overflow"],
    )
    def test_a_graph_that_raises_raises_on_every_call(self, merged, edges, error):
        g = build_graph(edges, 3)
        for _ in range(3):
            with pytest.raises(error):
                cnm_cluster(g)
        assert merged == [g] * 3


@st.composite
def small_graphs(draw) -> tuple[Graph, int]:
    """A simple graph on 2-9 vertices and a cluster count 1 <= k <= n."""
    n = draw(st.integers(2, 9))
    upper = np.triu(np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), float).reshape(n, n), 1)
    return Graph(upper + upper.T), draw(st.integers(1, n))


class TestSpectralMemo:
    def test_rounds_once_per_graph_and_k(self, rng, rounded):
        g = random_simple_graph(12, rng)
        first = {k: spectral_cluster(g, k, rng) for k in (2, 3)}
        for k in (2, 3):
            assert spectral_cluster(g, k, rng) is first[k]
            assert np.array_equal(first[k].labels, spectral_cluster(Graph(g.adjacency), k, rng).labels)
            assert not first[k].labels.flags.writeable
        assert rounded == [12] * 4  # two ks on g, then each on a fresh graph

    @pytest.mark.parametrize(
        "adjacency, k, error",
        [
            (np.full((6, 6), 1e308) - np.diag(np.full(6, 1e308)), 2, NumericalError),
            (np.ones((4, 4)) - np.eye(4), 5, InputError),
        ],
        ids=["laplacian-overflow", "k-above-n"],
    )
    def test_a_call_that_raises_stores_nothing(self, rng, rounded, adjacency, k, error):
        g = Graph(adjacency)
        for _ in range(2):
            with pytest.raises(error):
                spectral_cluster(g, k, rng)
        marker = object()  # stored only when the memo holds nothing under the key
        assert rounded == [] and g.memo(("spectral", k), lambda: marker) is marker

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_memo_read_is_the_first_partition(self, case):
        g, k = case
        rng = np.random.default_rng(0)
        first = spectral_cluster(g, k, rng)
        assert spectral_cluster(g, k, rng) is first
        assert np.array_equal(first.labels, spectral_cluster(Graph(g.adjacency), k, rng).labels)


class TestMemo:
    """`Graph.end_pairs` on graphs below the kernel's size rules, which
    serve every split from one dense factorization."""

    @pytest.mark.parametrize("key", ["adjacency", "laplacian"])
    def test_read_only_and_bit_identical_to_a_fresh_eigh(self, rng, key):
        g = random_simple_graph(12, rng)
        matrix = g.adjacency if key == "adjacency" else laplacian(g)
        fresh_evals, fresh_evecs = np.linalg.eigh(matrix)
        for bottom, top in [(3, 0), (0, 4), (2, 5), (5, 7)]:
            evals, evecs = g.end_pairs(key, lambda: matrix, bottom, top)
            pick = np.r_[:bottom, 12 - top : 12]
            assert np.array_equal(evals, fresh_evals[pick]) and np.array_equal(evecs, fresh_evecs[:, pick])
            assert not evals.flags.writeable and not evecs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                evecs[0, 0] = 1.0

    def test_factors_on_the_first_request_only(self, rng, factored):
        g = random_simple_graph(9, rng)
        builds = []

        def build():
            builds.append(1)
            return g.adjacency

        first = g.end_pairs("adjacency", build, 2, 1)
        again = g.end_pairs("adjacency", build, 2, 1)
        g.end_pairs("adjacency", build, 0, 4)
        g.end_pairs("adjacency", build, 4, 5)
        assert builds == [1] and factored == [9]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        g.end_pairs("laplacian", lambda: laplacian(g), 2, 0)
        assert factored == [9, 9]

    def test_graphs_do_not_share_factors(self, rng, factored):
        a, b = random_simple_graph(8, rng), random_simple_graph(8, rng)
        mu_a, _ = a.end_pairs("adjacency", lambda: a.adjacency, 4, 4)
        mu_b, _ = b.end_pairs("adjacency", lambda: b.adjacency, 4, 4)
        assert not np.array_equal(mu_a, mu_b) and factored == [8, 8]

    def test_overflowing_laplacian_raises_without_warning(self, rng, factored):
        # degrees of 5e308 overflow to inf; eigh would return NaN eigenvalues
        # and identity columns, and k-means a partition of them
        adj = np.full((6, 6), 1e308) - np.diag(np.full(6, 1e308))
        g = Graph(adj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="laplacian overflows"):
                spectral_cluster(g, 2, rng)
            for _ in range(2):  # a failure is not memoized as success
                with pytest.raises(NumericalError, match="the graph's laplacian overflows: entries are not finite"):
                    g.end_pairs("laplacian", lambda: laplacian(g), 2, 0)
        assert factored == []

    def test_overflowing_laplacian_past_the_kernel_rules_raises_without_warning(self, rng, kernel_runs):
        """The kernel gives up on the infinite degrees and the dense path
        raises as it does below the kernel's size rules."""
        n = graphs.KERNEL_LONG_RUN_VERTICES
        g = Graph(np.full((n, n), 1e307) - np.diag(np.full(n, 1e307)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="laplacian overflows"):
                spectral_cluster(g, 2, rng)
        assert kernel_runs == [n]


class TestFactorizationCounts:
    def test_spectral_repetition_factors_the_laplacian_once(self, factored, laplacians, monkeypatch):
        """Also where the kernel tries the Laplacian and gives up: the try
        and the dense fallback share one build of L."""
        g, gt = sample_graph(make_g3(4), np.random.default_rng(0))
        run_method("spectral", g, gt.k, None, np.random.default_rng(1))
        assert factored == [g.n] and len(laplacians) == 1 and laplacians[0] is g
        tried = []
        monkeypatch.setattr(graphs, "extremal_pairs", lambda m, *args: tried.append(m.shape[0]))
        g, gt = sample_graph(make_g3(80), np.random.default_rng(0))
        factored.clear()
        laplacians.clear()
        run_method("spectral", g, gt.k, None, np.random.default_rng(1))
        assert tried == [240] and factored == [240] and laplacians == [g]

    def test_cluster_spectral_factors_the_laplacian_once(self, factored, laplacians, capsys):
        assert main(["cluster", "--family", "g3", "--size", "4", "--method", "spectral"]) == 0
        assert factored == [12] and len(laplacians) == 1

    def test_real_grid_factors_each_graph_matrix_once(self, tmp_path, factored, laplacians, merged, rounded):
        edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
        blocks = [range(0, 5), range(5, 10)]
        edges.write_text("".join(f"{i} {j}\n" for b in blocks for i in b for j in b if i < j) + "0 5\n")
        labels.write_text("".join(f"{i} {i // 5}\n" for i in range(10)))
        argv = ["real", "--edges", str(edges), "--labels", str(labels), "--sigma-list", "0,0.5"]
        assert main(argv + ["--methods", "tb,spectral,cnm", "--reps", "3", "--out", str(tmp_path / "out")]) == 0
        # A_O and L once each; the 2 x 2 template once per tb repetition
        assert sorted(factored) == [2] * 6 + [10, 10]
        assert len(laplacians) == 1 and len(merged) == 1
        assert rounded == [10]  # one rounding for all 3 repetitions at both sigmas

    @pytest.mark.parametrize("fixed, graphs", [(True, 1), (False, 3)])
    def test_fixed_graph_repetitions_share_one_graph(
        self, tmp_path, factored, laplacians, merged, rounded, frames, streams, fixed, graphs
    ):
        """One Laplacian, merge loop, rounding and validated spectral frame per
        graph; only tb and Louvain, which draw, get a stream per repetition."""
        argv = ["synth", "--family", "g3", "--sizes", "4", "--methods", "tb,spectral,cnm,louvain", "--reps", "3"]
        assert main(argv + ["--fixed-graph"] * fixed + ["--out", str(tmp_path)]) == 0
        assert sorted(factored) == [3] * 3 + [12] * (2 * graphs)
        assert len({id(g) for g in laplacians}) == len(laplacians) == graphs
        assert len({id(g) for g in merged}) == len(merged) == graphs
        assert rounded == frames == [12] * graphs
        assert streams == ["tb", "louvain"] * 3


def negative_definite(spec) -> TemplateModel:
    """-A_M - 1e-9 I for a family whose expected template A_M is positive
    semidefinite: every template eigenvalue is negative, so tb asks for the
    adjacency's bottom k pairs and no top end."""
    weights = expected_model(spec).weights
    return TemplateModel(-weights - 1e-9 * np.eye(len(weights)))


class TestKernelCounts:
    def test_certified_repetitions_never_factor_the_adjacency(self, factored, kernel_runs):
        """g6/40 and g6/34 have 40 and 34 vertices per wanted pair: tb's
        certified frame, the adjacency's top 6 pairs, comes from one kernel
        run per graph, memoized for the second repetition, and the only eigh
        calls are the kernel's tridiagonals and the 6 x 6 template. g6/34
        (n = 204) is below KERNEL_LONG_RUN_VERTICES, which only a request
        with no top end needs."""
        for spec in (make_g6(40), make_g6(34)):
            factored.clear()
            kernel_runs.clear()
            g, gt = sample_graph(spec, np.random.default_rng(0))
            for rep in range(2):
                _, _, iterations = run_method("tb", g, gt.k, expected_model(spec), np.random.default_rng(rep))
                assert iterations == 0
            assert kernel_runs == [g.n]
            assert factored.count(6) == 2 and max(factored) < g.n

    def test_graph_under_the_size_rule_never_reaches_the_kernel(self, factored, kernel_runs, subset_runs):
        """g6/10 has 10 vertices per wanted pair. g3/40 (n = 120) and g6/34
        (n = 204) have 40 and 34, but under a negative-definite template tb
        asks for no top end, which needs KERNEL_LONG_RUN_VERTICES. Each
        request has one end and at least SUBSET_MIN_VERTICES_PER_PAIR
        vertices per pair: one subset solve of the adjacency and no dense
        factorization, whatever the matrix's name."""
        for spec, template in (
            (make_g6(10), expected_model),
            (make_g3(40), negative_definite),
            (make_g6(34), negative_definite),
        ):
            factored.clear()
            subset_runs.clear()
            g, gt = sample_graph(spec, np.random.default_rng(0))
            run_method("tb", g, gt.k, template(spec), np.random.default_rng(1))
            assert kernel_runs == [] and subset_runs == [g.n] and factored == [gt.k] + [g.n] * NO_DRIVER

    def test_subset_pairs_serve_every_repetition(self, factored, kernel_runs, subset_runs):
        """g6/10's certified frame, the adjacency's top 6 pairs, comes from one
        subset solve stored on the graph: the second repetition reads it."""
        g, gt = sample_graph(make_g6(10), np.random.default_rng(0))
        for rep in range(2):
            _, _, iterations = run_method("tb", g, gt.k, expected_model(make_g6(10)), np.random.default_rng(rep))
            assert iterations == 0
        assert kernel_runs == [] and subset_runs == [g.n] and factored == [6, 6] + [g.n] * NO_DRIVER

    def test_uncertified_one_ended_request_pays_a_subset_solve_and_dense_factors(self, factored, subset_runs):
        """c2/10/0.42 (n = 40, 10 vertices per pair) asks for the adjacency's
        top 4 pairs, which fail the sign test; LB's intervals need both ends,
        which the dense factors give, as after a failed kernel try."""
        spec = make_c2(10, 0.42)
        g, gt = sample_graph(spec, np.random.default_rng(0))
        _, _, iterations = run_method("tb", g, gt.k, expected_model(spec), np.random.default_rng(1))
        assert iterations > 0
        assert subset_runs == [g.n] and factored == [4, g.n]

    def test_without_a_driver_the_dense_factors_serve(self, monkeypatch, factored, subset_runs):
        """numpy on another LAPACK has no driver to bind: the request the
        driver would serve is factored densely, on the first try."""
        monkeypatch.setattr(graphs, "_subset_driver", lambda: None)
        g, gt = sample_graph(make_g6(10), np.random.default_rng(0))
        run_method("tb", g, gt.k, expected_model(make_g6(10)), np.random.default_rng(1))
        run_method("spectral", g, gt.k, None, None)
        assert subset_runs == [g.n, g.n] and factored == [6, g.n, g.n]

    def test_spectral_never_factors_the_laplacian_on_g6_40(self, factored, kernel_runs):
        """g6/40 passes both of the Laplacian's size rules: one kernel run
        per graph gives the embedding of both calls of a repetition, and the
        only eigh calls are the kernel's tridiagonals."""
        g, gt = sample_graph(make_g6(40), np.random.default_rng(0))
        for rep in range(2):
            run_method("spectral", g, gt.k, None, np.random.default_rng(rep))
        assert kernel_runs == [240] and max(factored) < 240

    def test_spectral_below_the_vertex_floor_never_reaches_the_kernel(self, factored, kernel_runs, subset_runs):
        """bp/100 hub (n = 200, 100 vertices per pair) and g3/40 (n = 120, 40
        per pair): the Laplacian's bottom end is a request with no top end,
        below KERNEL_LONG_RUN_VERTICES, as tb's on g3/40 under a
        negative-definite template is. One subset solve serves it and no
        dense factorization runs."""
        for spec in (make_bp(100, 0.6, "hub"), make_g3(40)):
            factored.clear()
            subset_runs.clear()
            g, gt = sample_graph(spec, np.random.default_rng(0))
            run_method("spectral", g, gt.k, None, None)
            assert kernel_runs == [] and subset_runs == [g.n] and factored == [g.n] * NO_DRIVER

    def test_uncertified_template_ends_the_kernel_at_its_first_test(self, factored, kernel_runs):
        """c2/40/0.42's template fails the sign test: the first Ritz test,
        at KERNEL_TEST_EVERY steps, shows it lost, and the dense path runs."""
        spec = make_c2(40, 0.42)
        g, gt = sample_graph(spec, np.random.default_rng(0))
        _, _, iterations = run_method("tb", g, gt.k, expected_model(spec), np.random.default_rng(1))
        assert iterations > 0
        assert kernel_runs == [160] and factored == [4, graphs.KERNEL_TEST_EVERY, 160]

    def test_fixed_graph_uncertified_repetitions_run_the_kernel_once(self, tmp_path, kernel_runs):
        """The first repetition's try ends at its exit and leaves the dense
        factors on the graph; the other four read them without a try."""
        argv = ["synth", "--family", "c2", "--sizes", "40", "--probs", "0.42", "--reps", "5", "--fixed-graph"]
        assert main(argv + ["--methods", "tb", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 5 and all(int(row.split(",")[-2]) > 0 for row in rows)  # iterations: none certified
        assert kernel_runs == [160]

    def test_sigma_sweep_runs_the_kernel_once(self, tmp_path, kernel_runs):
        """A `real` grid loads one graph; its templates at every sigma and
        repetition are certified, so the first kernel run's proved pairs
        serve them all."""
        g, gt = sample_graph(make_g6(40), np.random.default_rng(0))
        edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
        edges.write_text("".join(f"{i} {j}\n" for i, j in zip(*np.nonzero(np.triu(g.adjacency)))))
        labels.write_text("".join(f"{i} {c}\n" for i, c in enumerate(gt.labels)))
        argv = ["real", "--edges", str(edges), "--labels", str(labels), "--sigma-list", "0,0.5", "--reps", "2"]
        assert main(argv + ["--methods", "tb", "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(row.split(",")[-2] == "0" for row in rows)  # iterations: all certified
        assert kernel_runs == [240]

    def test_sigma_sweep_changing_the_split_runs_the_kernel_once(self, tmp_path, factored, kernel_runs):
        """As sigma grows the noisy templates' k_- runs through 0 to 3, so tb
        asks for the splits (0, 6) to (3, 3) of one adjacency. The first is
        proved; every later split is sliced from one dense factorization."""
        g, gt = sample_graph(make_g6(40), np.random.default_rng(1))
        edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
        edges.write_text("".join(f"{i} {j}\n" for i, j in zip(*np.nonzero(np.triu(g.adjacency)))))
        labels.write_text("".join(f"{i} {c}\n" for i, c in enumerate(gt.labels)))
        argv = ["real", "--edges", str(edges), "--labels", str(labels), "--sigma-list", "0,100,300,1000,2000"]
        assert main(argv + ["--reps", "6", "--methods", "tb", "--seed", "0", "--out", str(tmp_path / "out")]) == 0
        assert kernel_runs == [240] and factored.count(240) == 1

    def test_overflowing_adjacency_raises_without_warning(self, rng, kernel_runs):
        # row sums of 1.9e309 overflow ||A||_inf: the kernel gives up and the
        # dense path raises as it did before the kernel
        n = graphs.KERNEL_MIN_VERTICES_PER_PAIR * 6
        g = Graph(np.full((n, n), 1e307) - np.diag(np.full(n, 1e307)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="cost is not finite at the starting point"):
                template_cluster(g, TemplateModel(np.eye(6)), rng)
        assert kernel_runs == [n]
