"""Conjugate-gradient descent over matrices with orthonormal columns.

The feasible set is {P in R^{n x k} : P^T P = I_k}.  Moves are made by
projecting the Euclidean gradient onto the tangent space at the current
point, combining it with the previous search direction (carried over by
the same projection), backtracking along that direction, and mapping the
step back to the feasible set through a thin QR factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import count

ORTHO_TOL = 1e-10

# steepest_descent's settings
MAX_ITERS = 1000
GRAD_TOL = 1e-6
REL_COST_TOL = 1e-9
ARMIJO_SLOPE = 0.5  # see steepest_descent: keeps steps short of the line minimum
STEPS = tuple(2.0**-j for j in range(50))  # the Armijo trial steps, largest first


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """An n x k matrix with orthonormal columns."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise InputError(f"expected a 2-d matrix, got ndim={m.ndim}")
        n, k = m.shape
        if n < k:
            raise InputError(f"need n >= k, got {n} x {k}")
        if not np.all(np.isfinite(m)):
            raise NumericalError("matrix has non-finite entries")
        err = np.linalg.norm(m.T @ m - np.eye(k))
        if err > ORTHO_TOL:
            raise NumericalError(f"columns not orthonormal: ||P^T P - I|| = {err:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


StopReason = Literal["gradient", "relative-cost", "line-search", "max-iters"]


@dataclass
class DescentTrace:
    """Record of a single descent run."""

    cost_history: list[float]
    converged_by: StopReason
    restarts: int  # iterations after the first that searched along -gradient

    @property
    def iterates_count(self) -> int:
        """Accepted steps: one per cost after the starting point's."""
        return len(self.cost_history) - 1

    @property
    def line_search_failed(self) -> bool:
        return self.converged_by == "line-search"


def random_stiefel(n: int, k: int, rng: np.random.Generator) -> StiefelPoint:
    """Uniform random orthonormal k-frame (QR of a standard normal matrix)."""
    n = count(n, "n", 1)
    x = rng.standard_normal((n, count(k, "k", 1, n)))
    q, r = np.linalg.qr(x)
    # fix signs so R's diagonal is nonnegative -> Haar-distributed Q
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    return StiefelPoint(q)


def project_tangent(p: StiefelPoint, g: np.ndarray) -> np.ndarray:
    """Project g onto the tangent space at p: g - P sym(P^T g)."""
    g = np.asarray(g, dtype=float)
    if g.shape != p.shape:
        raise InputError(f"shape mismatch: point {p.shape}, gradient {g.shape}")
    ptg = p.matrix.T @ g
    return g - p.matrix @ ((ptg + ptg.T) / 2.0)


def retract_qr(p: StiefelPoint, v: np.ndarray) -> StiefelPoint:
    """Map a tangent displacement back to the feasible set via thin QR of P + v.

    The Q factor is normalized so that R has a nonnegative diagonal, which
    makes the factorization (and hence the iterate sequence) unique.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != p.shape:
        raise InputError(f"shape mismatch: point {p.shape}, displacement {v.shape}")
    q, r = np.linalg.qr(p.matrix + v)
    diag = np.diag(r)
    if np.any(np.abs(diag) < 1e-14):
        raise NumericalError("P + v is numerically rank deficient; QR retraction undefined")
    q = q * np.where(diag < 0, -1.0, 1.0)
    return StiefelPoint(q)


def steepest_descent(
    cost: Callable[[StiefelPoint], float],
    euclid_grad: Callable[[StiefelPoint], np.ndarray],
    p0: StiefelPoint,
) -> tuple[StiefelPoint, DescentTrace]:
    """Monotone Riemannian Polak-Ribiere+ conjugate gradient with Armijo
    backtracking and QR retraction.

    The direction is d = -g + beta * Proj(d_prev), with g the projected
    gradient, Proj the tangent projection at the current point and
    beta = max(0, <g, g - Proj(g_prev)> / ||g_prev||^2). When beta is 0 or
    d is not a descent direction the iteration restarts from d = -g, a
    steepest-descent step; DescentTrace.restarts counts these. The name
    stays steepest_descent because callers and the benchmark look the
    function up by it.

    The trial steps are STEPS, 2^-j for j < 50, and a step is accepted when
    the cost falls by at least ARMIJO_SLOPE * step * <-g, d>. Each search
    starts one step above the last accepted one (at most 1), shrinks while
    Armijo fails and grows while it holds, at about two and a half cost
    evaluations per iteration instead of a dozen.

    On a convex quadratic line the Armijo test with slope 1/2 holds exactly
    for steps up to the line minimum t*, so the search accepts the largest
    grid step not past it. A small slope such as 1e-4 accepts steps up to
    about 2 t*: the new gradient then points back along the previous
    direction, the conjugate direction stops descending, and on some
    graphs nearly every iteration restarts, which can run a descent into
    the iteration cap while others stop early on a short step.

    Stops when the projected gradient norm is at most GRAD_TOL
    ("gradient"), when the cost falls by at most REL_COST_TOL times
    max(1, |cost|) ("relative-cost"), when no trial step satisfies Armijo
    ("line-search"), or after MAX_ITERS iterations ("max-iters"). Raises
    NumericalError when a cost or gradient is not finite.
    """
    p = p0
    f = float(cost(p))
    if not np.isfinite(f):
        raise NumericalError("cost is not finite at the starting point")
    history = [f]
    converged_by: StopReason = "max-iters"
    j = 0  # grid index of the last accepted step
    restarts = 0
    grad_prev = direction = None

    def trial(idx: int) -> tuple[StiefelPoint, float, bool]:
        step = STEPS[idx]
        candidate = retract_qr(p, step * direction)
        f_new = float(cost(candidate))
        if not np.isfinite(f_new):
            raise NumericalError(f"cost is not finite at iteration {iters} (step {step:g})")
        return candidate, f_new, f_new <= f - ARMIJO_SLOPE * step * slope

    for iters in range(1, MAX_ITERS + 1):
        egrad = euclid_grad(p)
        if not np.isfinite(egrad).all():
            raise NumericalError(f"gradient is not finite at iteration {iters}")
        grad = project_tangent(p, egrad)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRAD_TOL:
            converged_by = "gradient"
            break

        sq = grad_norm * grad_norm
        restart = grad_prev is None
        if not restart:
            beta = max(0.0, float(np.vdot(grad, grad - project_tangent(p, grad_prev)))) / sq_prev
            direction = beta * project_tangent(p, direction) - grad
            slope = -float(np.vdot(grad, direction))
            restart = beta == 0.0 or slope <= 0.0
        if restart:
            direction, slope = -grad, sq
        grad_prev, sq_prev = grad, sq
        j = max(j - 1, 0)
        accepted = trial(j)
        if accepted[2]:
            while j > 0 and (larger := trial(j - 1))[2]:
                j -= 1
                accepted = larger
        else:
            while not accepted[2] and j + 1 < len(STEPS):
                j += 1
                accepted = trial(j)
            if not accepted[2]:
                converged_by = "line-search"
                break

        restarts += restart and iters > 1
        prev = f
        p, f, _ = accepted
        history.append(f)
        if abs(prev - f) <= REL_COST_TOL * max(1.0, abs(prev)):
            converged_by = "relative-cost"
            break

    return p, DescentTrace(cost_history=history, converged_by=converged_by, restarts=restarts)
