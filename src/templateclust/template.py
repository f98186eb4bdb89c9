"""Template-guided clustering: match a graph onto a small community template.

The observation adjacency A_O is contracted through an orthonormal n x k
embedding P and compared against the template weights A_M.  Minimizing
||A_M - P^T A_O P||_F^2 over orthonormal frames yields an embedding whose
rows are rounded into the final partition by `rounding.kmeans(frame, k)`:
pivoted-QR seeds and one Lloyd run on the row-normalized embedding.

With A_M = U diag(lambda) U^T and mu the eigenvalues of A_O, both ascending,
the eigenvalues of P^T A_O P interlace mu, so by Hoffman-Wielandt no frame
costs less than LB = sum_i dist(lambda_i, [mu_i, mu_{n-k+i}])^2.  When each
negative lambda_i lies at or below its interval and each other lambda_i at or
above it, the eigenvector frame P* = V_S U^T attains LB (Umeyama 1988; Fan
and Pall 1957), where V_S holds the eigenvectors of A_O for the k_- smallest
and the k - k_- largest mu and k_- counts the negative lambda.  This sign
test on the spectra certifies P* as a global minimum: the descent starts at
P* and stops at once.  Otherwise it starts at random, the only draw a run
takes from its rng; P* then costs more than LB unless a lambda lies past an
interval of zero width.  The eigenpairs of A_O come from the graph
(`Graph.end_pairs`), which chooses how to compute them.  Only the k end
pairs enter P*, the sign test and a certified LB, with the lambda as limits
past which the sign test is lost; an uncertified LB reads both ends k deep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, symmetric_matrix
from templateclust.rounding import kmeans
from templateclust.stiefel import DescentTrace, StiefelPoint, random_stiefel, steepest_descent


@dataclass(frozen=True, eq=False)
class TemplateModel:
    """k x k symmetric weight matrix describing expected community structure.

    Diagonal entries are self-loop weights encoding intra-community edge
    mass; off-diagonal entries encode inter-community edge mass.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", symmetric_matrix(self.weights, "template weights"))

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(eq=False)
class ClusteringResult:
    partition: np.ndarray
    embedding: StiefelPoint
    trace: DescentTrace
    lower_bound: float  # LB: no orthonormal embedding costs less


def _check_dims(a_o: np.ndarray, a_m: TemplateModel, p: StiefelPoint) -> None:
    n, k = p.shape
    if a_o.shape != (n, n):
        raise InputError(f"adjacency shape {a_o.shape} incompatible with embedding {p.shape}")
    if a_m.k != k:
        raise InputError(f"template has k={a_m.k} but embedding has k={k}")


def objective(a_o: np.ndarray, a_m: TemplateModel, p: StiefelPoint) -> float:
    """Squared Frobenius misfit ||A_M - P^T A_O P||_F^2."""
    a_o = np.asarray(a_o, dtype=float)
    _check_dims(a_o, a_m, p)
    residual = a_m.weights - p.matrix.T @ a_o @ p.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf, which callers check
        return float(np.sum(residual * residual))


def euclidean_gradient(a_o: np.ndarray, a_m: TemplateModel, p: StiefelPoint) -> np.ndarray:
    """Euclidean gradient of the misfit: 4 (A_O P P^T A_O P - A_O P A_M)."""
    a_o = np.asarray(a_o, dtype=float)
    _check_dims(a_o, a_m, p)
    ap = a_o @ p.matrix
    return 4.0 * (ap @ (p.matrix.T @ ap) - ap @ a_m.weights)


def eigenvector_start(g_o: Graph, model: TemplateModel) -> tuple[StiefelPoint, float, bool]:
    """The eigenvector frame P* = V_S U^T, the interlacing lower bound LB on
    the misfit, and whether P* attains LB by the sign test, all as defined in
    the module docstring.

    V_S and its eigenvalues, the ends, are the graph's end pairs
    (`Graph.end_pairs`), with lambda as their limits. A certified LB needs
    only the ends, sum_i (lambda_i - end_i)^2; otherwise LB's intervals come
    from the graph's k bottom and k top pairs, all n of them when n < 2k.
    Raises InputError unless the graph has more vertices than the template.
    """
    if g_o.n <= model.k:
        raise InputError(f"graph has n={g_o.n} vertices but template needs n > k={model.k}")
    lam, u = np.linalg.eigh(model.weights)
    k = lam.size
    negative = int(np.count_nonzero(lam < 0))
    ends, v_s = g_o.end_pairs("adjacency", lambda: g_o.adjacency, negative, k - negative, lam)
    certified = bool(np.all(lam[:negative] <= ends[:negative]) and np.all(lam[negative:] >= ends[negative:]))
    if certified:
        low = high = ends
    else:
        mu, _ = g_o.end_pairs("adjacency", lambda: g_o.adjacency, k, min(k, g_o.n - k))
        low, high = mu[:k], mu[-k:]
    with np.errstate(over="ignore", invalid="ignore"):
        excess = np.maximum(low - lam, 0.0) + np.maximum(lam - high, 0.0)
        lower_bound = float(np.sum(excess * excess))
    return StiefelPoint(v_s @ u.T), lower_bound, certified


def template_cluster(g_o: Graph, model: TemplateModel, rng: np.random.Generator) -> ClusteringResult:
    """Optimize the embedding, then round its rows by `kmeans(frame, k)`,
    which draws nothing from `rng`.

    The descent starts at the eigenvector frame P* when the sign test
    certifies it (each negative template eigenvalue at or below its interval
    and each other one at or above it, so P* costs LB) and then stops at once
    on the gradient with no iterations and no draw from `rng` at all.
    Otherwise it starts at a random frame. Ties at the selection boundary,
    such as mu_{n-k} = mu_{n-k+1}, make P* non-unique but deterministic.
    The result carries LB as `lower_bound`.
    """
    a_o = g_o.adjacency
    p_star, lower_bound, certified = eigenvector_start(g_o, model)
    p0 = p_star if certified else random_stiefel(g_o.n, model.k, rng)
    p_opt, trace = steepest_descent(
        lambda p: objective(a_o, model, p),
        lambda p: euclidean_gradient(a_o, model, p),
        p0,
    )
    labels = kmeans(p_opt.matrix, model.k)
    labels.setflags(write=False)
    return ClusteringResult(partition=labels, embedding=p_opt, trace=trace, lower_bound=lower_bound)
