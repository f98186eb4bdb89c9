import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    CommunitySpec,
    InputError,
    NumericalError,
    StiefelPoint,
    TemplateModel,
    euclidean_gradient,
    expected_model,
    make_c2,
    make_g3,
    make_g6,
    objective,
    project_tangent,
    random_stiefel,
    retract_qr,
    sample_graph,
    steepest_descent,
)
from templateclust.stiefel import ARMIJO_SLOPE, GRAD_TOL, MAX_ITERS, REL_COST_TOL, STEPS

from conftest import random_simple_graph


def test_random_stiefel_1d(rng):
    p = random_stiefel(1, 1, rng)
    assert abs(abs(p.matrix[0, 0]) - 1.0) < 1e-14


def test_random_stiefel_orthonormal(rng):
    p = random_stiefel(5, 2, rng)
    assert np.linalg.norm(p.matrix.T @ p.matrix - np.eye(2)) <= 1e-12


def test_random_stiefel_deterministic():
    a = random_stiefel(6, 3, np.random.default_rng(42))
    b = random_stiefel(6, 3, np.random.default_rng(42))
    assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stiefel_point_rejects_non_finite(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        StiefelPoint(np.full((3, 2), bad))


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.ones(3), InputError, "expected a 2-d matrix, got ndim=1"),
        (np.eye(2, 3), InputError, "need n >= k, got 2 x 3"),
        (np.ones((3, 2)), NumericalError, r"columns not orthonormal: \|\|P\^T P - I\|\| = "),
    ],
    ids=["1-d", "wide", "not-orthonormal"],
)
def test_stiefel_point_rejects_what_is_not_a_frame(matrix, error, message):
    with pytest.raises(error, match=message):
        StiefelPoint(matrix)


def test_random_stiefel_bad_shape(rng):
    with pytest.raises(InputError):
        random_stiefel(2, 3, rng)


def test_project_annihilates_normal_component(rng):
    p = random_stiefel(6, 2, rng)
    s = rng.standard_normal((2, 2))
    s = s + s.T
    assert np.max(np.abs(project_tangent(p, p.matrix @ s))) <= 1e-12


def test_project_keeps_tangent_vectors(rng):
    p = random_stiefel(6, 2, rng)
    skew = rng.standard_normal((2, 2))
    skew = skew - skew.T
    # tangent vector: P*skew plus an orthogonal-complement part
    g = p.matrix @ skew
    assert np.max(np.abs(project_tangent(p, g) - g)) <= 1e-12


def test_project_tangency_condition(rng):
    p = random_stiefel(6, 2, rng)
    xi = project_tangent(p, rng.standard_normal((6, 2)))
    ptx = p.matrix.T @ xi
    assert np.linalg.norm(ptx + ptx.T) <= 1e-10


def test_project_idempotent(rng):
    p = random_stiefel(8, 3, rng)
    g = rng.standard_normal((8, 3))
    once = project_tangent(p, g)
    twice = project_tangent(p, once)
    assert np.linalg.norm(twice - once) <= 1e-10


def test_project_shape_mismatch(rng):
    p = random_stiefel(6, 2, rng)
    with pytest.raises(InputError):
        project_tangent(p, np.zeros((6, 3)))


def test_retract_zero_is_identity(rng):
    p = random_stiefel(5, 2, rng)
    q = retract_qr(p, np.zeros((5, 2)))
    assert np.max(np.abs(q.matrix - p.matrix)) <= 1e-12


def test_retract_hand_example():
    p = StiefelPoint(np.array([[1.0], [0.0]]))
    q = retract_qr(p, np.array([[0.0], [1.0]]))
    assert np.allclose(q.matrix, [[1 / np.sqrt(2)], [1 / np.sqrt(2)]], atol=1e-14)


def test_retract_shape_mismatch(rng):
    with pytest.raises(InputError, match=r"shape mismatch: point \(5, 2\), displacement \(5, 3\)"):
        retract_qr(random_stiefel(5, 2, rng), np.zeros((5, 3)))


def test_retract_rank_deficient_step(rng):
    p = random_stiefel(5, 2, rng)
    with pytest.raises(NumericalError, match="P \\+ v is numerically rank deficient"):
        retract_qr(p, -p.matrix)


def test_retract_orthonormality_many(rng):
    for _ in range(100):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        p = random_stiefel(n, k, rng)
        v = project_tangent(p, rng.standard_normal((n, k)))
        q = retract_qr(p, v)
        assert np.linalg.norm(q.matrix.T @ q.matrix - np.eye(k)) <= 1e-10


def test_descent_constant_cost(rng):
    p0 = random_stiefel(5, 2, rng)
    p, trace = steepest_descent(lambda p: 3.0, lambda p: np.zeros((5, 2)), p0)
    assert trace.converged_by == "gradient"
    assert trace.iterates_count <= 1
    assert np.array_equal(p.matrix, p0.matrix)


def test_descent_known_minimizer(rng):
    target = random_stiefel(6, 2, rng)
    # start near the target by retracting a small tangent step
    v = 0.05 * project_tangent(target, rng.standard_normal((6, 2)))
    p0 = retract_qr(target, v)

    def cost(p):
        return float(np.sum((p.matrix - target.matrix) ** 2))

    def grad(p):
        return 2.0 * (p.matrix - target.matrix)

    p, trace = steepest_descent(cost, grad, p0)
    assert cost(p) <= 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(trace.cost_history, trace.cost_history[1:]))


def test_descent_history_non_increasing(rng):
    # arbitrary smooth cost: alignment with a fixed matrix
    m = rng.standard_normal((7, 3))
    p0 = random_stiefel(7, 3, rng)
    p, trace = steepest_descent(
        lambda p: float(np.sum((p.matrix - m) ** 2)),
        lambda p: 2.0 * (p.matrix - m),
        p0,
    )
    hist = trace.cost_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def cold_start_descent(cost, euclid_grad, p0, conjugate=True):
    """Reference descent whose every line search starts at the largest
    trial step and shrinks until Armijo holds, so it accepts the
    largest passing grid step. With conjugate=True it searches along the
    Polak-Ribiere+ direction and restarts from -gradient where
    steepest_descent does; with conjugate=False it is plain steepest
    descent. Returns (point, cost history, stop reason)."""
    p = p0
    f = float(cost(p))
    history = [f]
    grad_prev = direction = None
    for _ in range(MAX_ITERS):
        grad = project_tangent(p, euclid_grad(p))
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRAD_TOL:
            return p, history, "gradient"
        sq = grad_norm * grad_norm
        d, slope = -grad, sq
        if conjugate and grad_prev is not None:
            beta = max(0.0, float(np.vdot(grad, grad - project_tangent(p, grad_prev)))) / sq_prev
            cg = beta * project_tangent(p, direction) - grad
            if beta > 0.0 and float(np.vdot(grad, cg)) < 0.0:
                d, slope = cg, -float(np.vdot(grad, cg))
        grad_prev, sq_prev, direction = grad, sq, d
        for step in STEPS:
            candidate = retract_qr(p, step * direction)
            f_new = float(cost(candidate))
            if f_new <= f - ARMIJO_SLOPE * step * slope:
                break
        else:
            return p, history, "line-search"
        p, prev, f = candidate, f, f_new
        history.append(f)
        if abs(prev - f) <= REL_COST_TOL * max(1.0, abs(prev)):
            return p, history, "relative-cost"
    return p, history, "max-iters"


def counted(fn):
    calls = [0]

    def wrapped(p):
        calls[0] += 1
        return fn(p)

    return wrapped, calls


def template_problem(spec, seed):
    rng = np.random.default_rng(seed)
    graph, _ = sample_graph(spec, rng)
    model = expected_model(spec)
    a = graph.adjacency
    p0 = random_stiefel(graph.n, model.k, rng)
    return (lambda p: objective(a, model, p)), (lambda p: euclidean_gradient(a, model, p)), p0


TEMPLATE_SPECS = {"g6-40": make_g6(40), "c2-10": make_c2(10, 0.60), "g3-80": make_g3(80)}


@pytest.mark.parametrize("spec", TEMPLATE_SPECS.values(), ids=TEMPLATE_SPECS.keys())
def test_warm_start_matches_cold_start(spec):
    # at seed 0 a warm start that never grows the step leaves the
    # cold-start path on c2, so this also checks the growing phase
    cost, grad, p0 = template_problem(spec, seed=0)
    cold_cost, cold_calls = counted(cost)
    p_cold, history_cold, stop_cold = cold_start_descent(cold_cost, grad, p0)
    warm_cost, warm_calls = counted(cost)
    p, trace = steepest_descent(warm_cost, grad, p0)

    assert trace.cost_history == history_cold
    assert np.array_equal(p.matrix, p_cold.matrix)
    assert trace.converged_by == stop_cold
    iterations = len(history_cold) - 1
    assert warm_calls[0] < 4 * iterations
    assert cold_calls[0] > 8 * iterations


@pytest.mark.parametrize("spec", TEMPLATE_SPECS.values(), ids=TEMPLATE_SPECS.keys())
def test_conjugate_gradient_against_steepest_descent(spec):
    iterations_sd = iterations_cg = 0
    for seed in range(4):
        cost, grad, p0 = template_problem(spec, seed)
        _, history_sd, _ = cold_start_descent(cost, grad, p0, conjugate=False)
        _, trace = steepest_descent(cost, grad, p0)
        hist = trace.cost_history
        assert abs(hist[-1] - history_sd[-1]) <= 1e-3 * abs(history_sd[-1])
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert 0 <= trace.restarts < trace.iterates_count
        iterations_sd += len(history_sd) - 1
        iterations_cg += trace.iterates_count
    assert 3 * iterations_cg <= iterations_sd


@pytest.mark.parametrize("scale", [-1.0, 0.1], ids=["not-descent", "beta-clipped"])
def test_restart_counted(scale):
    # on the circle (n=2, k=1) the gradient J p is tangent. Reversing it
    # makes the PR+ candidate an ascent direction; shrinking it tenfold
    # makes beta negative, clipped to 0. Either way iteration 2 restarts.
    # The third gradient is zero, which stops the descent there.
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    scales = iter([1.0, scale, 0.0])
    calls = [0]

    def cost(p):  # falls on every call, so Armijo takes the first step
        calls[0] += 1
        return -float(calls[0])

    p0 = StiefelPoint(np.array([[1.0], [0.0]]))
    p, trace = steepest_descent(cost, lambda p: next(scales) * rot @ p.matrix, p0)
    assert trace.converged_by == "gradient"
    assert trace.iterates_count == 2
    assert trace.restarts == 1
    p1 = retract_qr(p0, -project_tangent(p0, rot @ p0.matrix))
    g1 = project_tangent(p1, scale * rot @ p1.matrix)
    assert np.array_equal(p.matrix, retract_qr(p1, -g1).matrix)


def test_iteration_cap_stop_reason():
    # on the circle a cost that falls on every call never stalls and its
    # gradient J p never vanishes, so only the iteration cap stops it
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    calls = [0]

    def cost(p):
        calls[0] += 1
        return -float(calls[0])

    p0 = StiefelPoint(np.array([[1.0], [0.0]]))
    p, trace = steepest_descent(cost, lambda p: rot @ p.matrix, p0)
    assert trace.converged_by == "max-iters"
    assert trace.iterates_count == MAX_ITERS
    assert np.linalg.norm(p.matrix) == pytest.approx(1.0)


def test_default_slope_avoids_restart_storm(monkeypatch):
    # six planted communities of ten, seed 2: with Armijo slope 1e-4 the
    # accepted steps overshoot the line minimum and the descent restarts
    # from -gradient at nearly every iteration; the default slope keeps
    # the steps short of it and the conjugate directions descending
    rates = np.full((6, 6), 0.01)
    np.fill_diagonal(rates, 0.4)
    spec = CommunitySpec((10,) * 6, rates)
    cost, grad, p0 = template_problem(spec, seed=2)
    _, trace = steepest_descent(cost, grad, p0)
    monkeypatch.setattr("templateclust.stiefel.ARMIJO_SLOPE", 1e-4)
    _, storm = steepest_descent(cost, grad, p0)
    assert storm.restarts > 0.9 * storm.iterates_count
    assert trace.restarts < 0.25 * trace.iterates_count
    assert trace.iterates_count < storm.iterates_count / 4
    assert trace.cost_history[-1] <= storm.cost_history[-1]


@pytest.mark.parametrize(
    "good_calls, message",
    [(3, "cost is not finite at iteration [1-3] "), (0, "cost is not finite at the starting point")],
)
def test_nan_cost_raises_naming_iteration(rng, good_calls, message):
    m = rng.standard_normal((6, 2))
    calls = [0]

    def cost(p):
        calls[0] += 1
        return float("nan") if calls[0] > good_calls else float(np.sum((p.matrix - m) ** 2))

    with pytest.raises(NumericalError, match=message):
        steepest_descent(cost, lambda p: 2.0 * (p.matrix - m), random_stiefel(6, 2, rng))


def test_non_finite_gradient_raises_naming_iteration(rng):
    m = rng.standard_normal((6, 2))
    calls = [0]

    def grad(p):
        calls[0] += 1
        return np.full((6, 2), np.inf) if calls[0] == 2 else 2.0 * (p.matrix - m)

    with pytest.raises(NumericalError, match="gradient is not finite at iteration 2"):
        steepest_descent(
            lambda p: float(np.sum((p.matrix - m) ** 2)), grad, random_stiefel(6, 2, rng)
        )


def test_line_search_exhausted_stop_reason(rng):
    m = rng.standard_normal((6, 2))
    p0 = random_stiefel(6, 2, rng)
    # an ascent direction: every grid step raises the cost
    p, trace = steepest_descent(
        lambda p: float(np.sum((p.matrix - m) ** 2)),
        lambda p: -2.0 * (p.matrix - m),
        p0,
    )
    assert trace.converged_by == "line-search"
    assert trace.line_search_failed
    assert trace.iterates_count == 0
    assert len(trace.cost_history) == 1
    assert np.array_equal(p.matrix, p0.matrix)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 12),
    k=st.integers(1, 3),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_descent_monotone_and_orthonormal_on_random_templates(n, k, density, seed):
    rng = np.random.default_rng(seed)
    a = random_simple_graph(n, rng, density).adjacency
    w = rng.uniform(0.0, 5.0, (k, k))
    model = TemplateModel(w + w.T)
    p, trace = steepest_descent(
        lambda p: objective(a, model, p),
        lambda p: euclidean_gradient(a, model, p),
        random_stiefel(n, k, rng),
    )
    hist = trace.cost_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert np.linalg.norm(p.matrix.T @ p.matrix - np.eye(k)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 14),
    k=st.integers(1, 4),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_and_gradient_permutation_equivariant(n, k, density, seed):
    # relabelling the vertices by a permutation Π: A -> ΠAΠᵀ and P -> ΠP
    # leaves the cost unchanged and permutes the gradient's rows
    rng = np.random.default_rng(seed)
    k = min(k, n)
    upper = np.triu(rng.random((n, n)) < density, k=1) * rng.uniform(0.5, 2.0, (n, n))
    a = upper + upper.T
    w = rng.uniform(0.0, 5.0, (k, k))
    model = TemplateModel(w + w.T)
    p = random_stiefel(n, k, rng)
    perm = rng.permutation(n)
    a_perm = a[np.ix_(perm, perm)]
    p_perm = StiefelPoint(p.matrix[perm])
    assert objective(a_perm, model, p_perm) == pytest.approx(objective(a, model, p), rel=1e-10)
    grad = euclidean_gradient(a, model, p)
    grad_perm = euclidean_gradient(a_perm, model, p_perm)
    assert np.linalg.norm(grad_perm - grad[perm]) <= 1e-10 * np.linalg.norm(grad)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 4),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_retract_orthonormal_for_large_tangent_steps(n, k, scale, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    p = random_stiefel(n, k, rng)
    v = project_tangent(p, rng.standard_normal((n, k)))
    q = retract_qr(p, scale * v)
    assert np.linalg.norm(q.matrix.T @ q.matrix - np.eye(k)) <= 1e-10
