import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    Graph,
    InputError,
    Partition,
    StiefelPoint,
    TemplateModel,
    adjusted_rand_index,
    eigenvector_start,
    euclidean_gradient,
    expected_model,
    graphs,
    kmeans,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    model_from_ground_truth,
    objective,
    projector_distance,
    random_stiefel,
    sample_graph,
    steepest_descent,
    template,
    template_cluster,
)
from templateclust.cli import main

from conftest import email_graph, random_simple_graph, two_triangles

# the oracle counts a frame whose cost is within this much of LB, relative to
# max(1, ||A_M||_F^2), as attaining LB
ORACLE_TOL = 1e-9


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

    def test_template_of_another_k(self):
        p = StiefelPoint(np.eye(4)[:, :2])
        with pytest.raises(InputError, match="template has k=3 but embedding has k=2"):
            objective(np.zeros((4, 4)), TemplateModel(np.zeros((3, 3))), p)

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
    return objective(a_o, model, frame) <= bound + ORACLE_TOL * certificate_scale(model), bound


def certificate_scale(model):
    return max(1.0, float(np.sum(model.weights**2)))


def random_start_descent(a_o, model, rng):
    return steepest_descent(
        lambda p: objective(a_o, model, p),
        lambda p: euclidean_gradient(a_o, model, p),
        random_stiefel(a_o.shape[0], model.k, rng),
    )


def near_tie(a_o, model):
    """Whether some template eigenvalue lies within eps of its interval's end
    on the side of its sign (the lower end when negative, the upper end
    otherwise), or past that end into an interval narrower than eps. Away
    from such ties the sign test and the oracle must agree: a lambda past its
    end by more than eps into a wider interval puts P* more than eps^2 above
    LB, ten times the oracle's tolerance."""
    lam, _ = np.linalg.eigh(model.weights)  # the bits the package splits by sign
    mu, _ = np.linalg.eigh(a_o)
    n, k = len(mu), len(lam)
    eps = np.sqrt(10 * ORACLE_TOL * certificate_scale(model))
    for i in range(k):
        low, high = mu[i], mu[n - k + i]
        past = lam[i] - low if lam[i] < 0 else high - lam[i]
        if abs(past) <= eps or (past > 0 and high - low <= eps):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 10),
    k=st.integers(2, 3),
    density=st.floats(0.1, 0.9),
    scale=st.floats(0.1, 10.0),
    doubled=st.booleans(),
    repeated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lower_bound_holds_and_certified_runs_attain_it(n, k, density, scale, doubled, repeated, seed):
    """`doubled` makes the graph two copies of one random graph, so every mu
    is doubled and intervals can shrink to a point; `repeated` makes the
    template c I + d J for integers c and d, whose eigenvalue c repeats and
    can equal a mu, as -1 does for a complete component."""
    rng = np.random.default_rng(seed)
    a = random_simple_graph(n // 2 if doubled else n, rng, density)
    if doubled:
        a = Graph(np.kron(np.eye(2), a.adjacency))
    if repeated:
        c, d = rng.integers(-3, 4, 2)
        model = TemplateModel(c * np.eye(k) + d * np.ones((k, k)))
    else:
        w = rng.standard_normal((k, k)) * scale
        model = TemplateModel(w + w.T)
    oracle, bound = oracle_certified(a.adjacency, model)
    _, _, certified = eigenvector_start(a, model)
    # the sign test certifies only frames that attain LB; at a near tie it
    # may miss one that does, and the descent then starts at random
    assert oracle or not certified
    if not near_tie(a.adjacency, model):
        assert certified == oracle
    slack = ORACLE_TOL * certificate_scale(model)

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


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(2, 5),
    extra=st.integers(1, 7),
    density=st.floats(0.1, 0.9),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lower_bound_is_read_from_one_factorization(k, extra, density, scale, seed):
    """n runs from k + 1 to 2k + 2, so the two ends of the spectrum that an
    uncertified LB reads overlap (n < 2k), meet (n = 2k) or stand apart.
    LB is, bit for bit, the sum over the ends of a fresh `np.linalg.eigh`
    of A, and the graph factors its n x n adjacency once, certified or not."""
    n = k + min(extra, k + 2)
    rng = np.random.default_rng(seed)
    g = random_simple_graph(n, rng, density)
    w = rng.standard_normal((k, k)) * scale
    model = TemplateModel(w + w.T)
    lam = np.linalg.eigh(model.weights)[0]
    mu = np.linalg.eigh(g.adjacency)[0]
    negative = int(np.count_nonzero(lam < 0))
    ends = np.r_[mu[:negative], mu[n - k + negative :]]
    oracle_certified = bool(np.all(lam[:negative] <= ends[:negative]) and np.all(lam[negative:] >= ends[negative:]))
    low, high = (ends, ends) if oracle_certified else (mu[:k], mu[n - k :])
    excess = np.maximum(low - lam, 0.0) + np.maximum(lam - high, 0.0)
    orders = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        orders.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", counting):
        _, bound, certified = eigenvector_start(g, model)
    assert certified == oracle_certified
    assert bound == float(np.sum(excess * excess))
    assert orders == [k, n]


def kernel_run(m, bottom, top, limits=None):
    """`graphs.extremal_pairs`' result, and how many Ritz tests it made."""
    tests = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        tests.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", counting):
        pairs = graphs.extremal_pairs(m, bottom, top, limits)
    return pairs, len(tests)


EXIT_GRAPHS = {
    "c2-40-0.42": make_c2(40, 0.42),  # its template is never certified
    "bp-40-0.6-hub": make_bp(40, 0.6, "hub"),
    "bp-120-0.4-hub": make_bp(120, 0.4, "hub"),  # n // 2 steps
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(EXIT_GRAPHS)), noise=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_the_kernels_exit_never_gives_up_a_certifiable_frame(name, noise, seed):
    """The template is the graph's expected one plus symmetric Gaussian
    noise of `noise` times its largest eigenvalue's size, so the signs of
    its eigenvalues and the sign test go either way. Whenever the limits end
    a run early, the dense sign test fails; a run they do not end makes the
    same tests and returns the same pairs as the run without limits."""
    spec = EXIT_GRAPHS[name]
    rng = np.random.default_rng(seed)
    g, _ = sample_graph(spec, rng)
    weights = expected_model(spec).weights
    w = rng.standard_normal(weights.shape) * noise * np.abs(np.linalg.eigvalsh(weights)).max()
    lam = np.linalg.eigvalsh(weights + w + w.T)
    k, negative = lam.size, int(np.count_nonzero(lam < 0))
    plain, plain_tests = kernel_run(g.adjacency, negative, k - negative)
    pairs, tests = kernel_run(g.adjacency, negative, k - negative, lam)
    mu = np.linalg.eigvalsh(g.adjacency)
    ends = np.concatenate([mu[:negative], mu[mu.size - k + negative :]])
    certifiable = np.all(lam[:negative] <= ends[:negative]) and np.all(lam[negative:] >= ends[negative:])
    if pairs is not None:
        assert tests == plain_tests and all(np.array_equal(a, b) for a, b in zip(pairs, plain))
    elif plain is not None or tests < plain_tests:  # the exit ended the run
        assert not certifiable


class TestEigenvectorStart:
    def test_rejects_n_at_most_k_by_name(self):
        triangle = Graph(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(InputError, match=r"n=3 vertices but template needs n > k=4"):
            eigenvector_start(triangle, TemplateModel(np.eye(4)))

    @staticmethod
    def instances(name, seed, tmp_path, monkeypatch, index=0):
        """A graph and its template; email graphs are `write_email_graph(seed, index)`."""
        if name == "email":
            g, gt = email_graph(monkeypatch, tmp_path, seed, index)
            return g, model_from_ground_truth(g, gt)
        spec = {
            "g6-40": make_g6(40),
            "g3-40": make_g3(40),
            "c2-10-0.60": make_c2(10, 0.60),
            "c2-10-0.42": make_c2(10, 0.42),
            "c2-40-0.60": make_c2(40, 0.60),
            "bp-80-0.8-hub": make_bp(80, 0.8, "hub"),
        }[name]
        g, _ = sample_graph(spec, np.random.default_rng(seed))
        return g, expected_model(spec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["g6-40", "c2-10-0.60", "email", "c2-40-0.60", "g3-40", "bp-80-0.8-hub"])
    def test_certified_start_matches_random_start_descent(self, name, seed, tmp_path, monkeypatch):
        """g6-40 and the last three have 32 or more vertices per wanted pair,
        so their frame comes from the Lanczos kernel: its flag, bound and
        partition are those of the dense path, which the kernel's size rule
        set out of reach selects."""
        g, model = self.instances(name, seed, tmp_path, monkeypatch)
        p_star, bound, certified = eigenvector_start(g, model)
        assert bound == pytest.approx(interlacing_bound(g.adjacency, model.weights), rel=1e-12)
        assert certified
        assert objective(g.adjacency, model, p_star) <= bound + ORACLE_TOL * certificate_scale(model)
        result = template_cluster(g, model, np.random.default_rng(seed))
        assert result.trace.iterates_count == 0
        assert result.trace.converged_by == "gradient"
        assert np.array_equal(result.embedding.matrix, p_star.matrix)
        p_descent, _ = random_start_descent(g.adjacency, model, np.random.default_rng(100 + seed))
        assert projector_distance(p_star, p_descent) <= 1e-5
        monkeypatch.setattr(graphs, "KERNEL_MIN_VERTICES_PER_PAIR", g.n + 1)
        dense = Graph(g.adjacency)
        _, dense_bound, dense_certified = eigenvector_start(dense, model)
        assert dense_certified == certified
        assert bound == pytest.approx(dense_bound, rel=1e-12)
        assert np.array_equal(template_cluster(dense, model, np.random.default_rng(seed)).partition, result.partition)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saddle_falls_back_to_random_start(self, seed, tmp_path, monkeypatch):
        g, model = self.instances("c2-10-0.42", seed, tmp_path, monkeypatch)
        p_star, bound, certified = eigenvector_start(g, model)
        assert not certified
        assert objective(g.adjacency, model, p_star) > bound
        result = template_cluster(g, model, np.random.default_rng(seed))
        assert result.trace.iterates_count > 0
        # the fallback draws its start first, exactly as a plain random start
        _, trace = random_start_descent(g.adjacency, model, np.random.default_rng(seed))
        assert result.trace.cost_history == trace.cost_history

    def test_uncertified_rows_equal_the_dense_paths(self, tmp_path, monkeypatch):
        """c2/40/0.42 passes the kernel's size rule but is never certified:
        its records.csv is byte-identical to that of the dense path alone."""
        runs = []
        kernel = graphs.extremal_pairs
        monkeypatch.setattr(graphs, "extremal_pairs", lambda *args: runs.append(1) or kernel(*args))
        argv = ["synth", "--family", "c2", "--sizes", "40", "--probs", "0.42", "--reps", "2", "--methods", "tb"]
        assert main(argv + ["--out", str(tmp_path / "kernel")]) == 0
        assert runs == [1, 1]
        monkeypatch.setattr(graphs, "KERNEL_MIN_VERTICES_PER_PAIR", 10**9)
        assert main(argv + ["--out", str(tmp_path / "dense")]) == 0
        assert runs == [1, 1]
        rows = (tmp_path / "kernel" / "records.csv").read_text().splitlines()
        assert all(int(row.split(",")[-2]) > 0 for row in rows[1:])  # iterations: every row descends
        assert (tmp_path / "kernel" / "records.csv").read_bytes() == (tmp_path / "dense" / "records.csv").read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["g6-40", "c2-10-0.60", "email"])
    def test_certified_run_draws_nothing_from_rng(self, name, seed, tmp_path, monkeypatch):
        """A certified run draws nothing from rng, returns the same partition
        for any seed, and evaluates P* once: one cost and one gradient, both
        the descent's."""
        g, model = self.instances(name, seed, tmp_path, monkeypatch)
        calls = {"objective": 0, "euclidean_gradient": 0}
        for function in calls:
            counted = getattr(template, function)

            def counting(*args, function=function, counted=counted):
                calls[function] += 1
                return counted(*args)

            monkeypatch.setattr(template, function, counting)
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        result = template_cluster(g, model, rng)
        assert calls == {"objective": 1, "euclidean_gradient": 1}
        assert result.trace.iterates_count == 0
        assert rng.bit_generator.state == state
        other = template_cluster(g, model, np.random.default_rng(seed + 1000))
        assert np.array_equal(result.partition, other.partition)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["g6-40", "c2-10-0.60", "email"])
    def test_relabelling_vertices_relabels_the_partition(self, name, index, tmp_path, monkeypatch):
        """tb on a certified graph whose vertices are relabelled returns the
        relabelled partition: its frame follows the vertices, and its rounding
        is deterministic and invariant under the frame's column signs."""
        g, model = self.instances(name, 3 if name == "email" else index, tmp_path, monkeypatch, index)
        perm = np.random.default_rng(11).permutation(g.n)
        relabelled = Graph(g.adjacency[np.ix_(perm, perm)])
        result = template_cluster(g, model, np.random.default_rng(0))
        moved = template_cluster(relabelled, model, np.random.default_rng(0))
        assert result.trace.iterates_count == moved.trace.iterates_count == 0
        assert np.array_equal(Partition(result.partition[perm]).labels, Partition(moved.partition).labels)


@pytest.mark.parametrize("name", ["g6-20", "g3-20", "bp-10-0.6-bipartite", "c2-10-0.60"])
def test_certified_tb_is_the_k_minus_control(name):
    """A certified template enters tb's partition only through k and k_-:
    the partition is the shared rounding of V_S, the adjacency eigenvectors
    of the k_- smallest and k - k_- largest eigenvalues, read from a fresh
    graph without the template's eigenvalues as limits. The rounding sees
    V_S U^T, and it is invariant under that rotation."""
    spec = {
        "g6-20": make_g6(20),
        "g3-20": make_g3(20),
        "bp-10-0.6-bipartite": make_bp(10, 0.6),
        "c2-10-0.60": make_c2(10, 0.60),
    }[name]
    model = expected_model(spec)
    k = model.k
    k_minus = int(np.count_nonzero(np.linalg.eigvalsh(model.weights) < 0))
    for s in range(5):
        g, _ = sample_graph(spec, np.random.default_rng((7, s)))
        assert eigenvector_start(g, model)[2]
        fresh = Graph(g.adjacency)
        v_s = fresh.end_pairs("adjacency", lambda: fresh.adjacency, k_minus, k - k_minus)[1]
        control = kmeans(v_s, k)
        result = template_cluster(g, model, np.random.default_rng(s))
        assert np.array_equal(Partition(result.partition).labels, Partition(control).labels)
