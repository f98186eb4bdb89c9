import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    DescentConfig,
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

    # initial step 0.25 avoids the reflection cycle a unit step causes on
    # this quadratic (where -grad overshoots the minimizer)
    cfg = DescentConfig(armijo_initial_step=0.25, grad_tol=1e-9, rel_cost_tol=1e-16)
    p, trace = steepest_descent(cost, grad, p0, cfg)
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


def test_config_validation():
    with pytest.raises(InputError):
        DescentConfig(armijo_shrink=1.5)
    with pytest.raises(InputError):
        DescentConfig(grad_tol=0.0)
    with pytest.raises(InputError):
        DescentConfig(armijo_max_backtracks=0)


def cold_start_descent(cost, euclid_grad, p0, cfg=DescentConfig()):
    """Reference descent whose every line search starts at
    armijo_initial_step and shrinks until Armijo holds, so it accepts the
    largest passing grid step. Returns (point, cost history, stop reason)."""
    p = p0
    f = float(cost(p))
    history = [f]
    for _ in range(cfg.max_iters):
        grad = project_tangent(p, euclid_grad(p))
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= cfg.grad_tol:
            return p, history, "gradient"
        step = cfg.armijo_initial_step
        sq = grad_norm * grad_norm
        for _ in range(cfg.armijo_max_backtracks):
            candidate = retract_qr(p, -step * grad)
            f_new = float(cost(candidate))
            if f_new <= f - cfg.armijo_slope * step * sq:
                break
            step *= cfg.armijo_shrink
        else:
            return p, history, "line-search"
        p, prev, f = candidate, f, f_new
        history.append(f)
        if abs(prev - f) <= cfg.rel_cost_tol * max(1.0, abs(prev)):
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


@pytest.mark.parametrize(
    "spec", [make_g6(40), make_c2(10, 0.60), make_g3(80)], ids=["g6-40", "c2-10", "g3-80"]
)
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
        DescentConfig(armijo_max_backtracks=10),
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
