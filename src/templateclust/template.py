"""Template-guided clustering: match a graph onto a small community template.

The observation adjacency A_O is contracted through an orthonormal n x k
embedding P and compared against the template weights A_M.  Minimizing
||A_M - P^T A_O P||_F^2 over orthonormal frames yields an embedding whose
rows are clustered with k-means to produce the final partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph
from templateclust.stiefel import DescentTrace, StiefelPoint, random_stiefel, steepest_descent


@dataclass(frozen=True)
class TemplateModel:
    """k x k symmetric weight matrix describing expected community structure.

    Diagonal entries are self-loop weights encoding intra-community edge
    mass; off-diagonal entries encode inter-community edge mass.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError(f"template weights must be square, got {w.shape}")
        if w.shape[0] < 1:
            raise InputError("template needs at least one community")
        if not np.isfinite(w).all():
            raise InputError("template weights contain non-finite values (NaN or inf)")
        if not np.allclose(w, w.T, atol=0, rtol=0):
            raise InputError("template weights must be symmetric")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass
class ClusteringResult:
    partition: np.ndarray
    embedding: StiefelPoint
    trace: DescentTrace


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
    return float(np.sum(residual * residual))


def euclidean_gradient(a_o: np.ndarray, a_m: TemplateModel, p: StiefelPoint) -> np.ndarray:
    """Euclidean gradient of the misfit: 4 (A_O P P^T A_O P - A_O P A_M)."""
    a_o = np.asarray(a_o, dtype=float)
    _check_dims(a_o, a_m, p)
    ap = a_o @ p.matrix
    return 4.0 * (ap @ (p.matrix.T @ ap) - ap @ a_m.weights)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed centroids by k-means++: spread proportional to squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[rng.integers(n)]
        else:
            centroids[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def _lloyd(
    points: np.ndarray, centroids: np.ndarray, max_iters: int
) -> tuple[np.ndarray, float]:
    """Lloyd iterations from the given centroids, all clusters at once.

    Squared distances are ||x||^2 - 2 x.c + ||c||^2, so one n x k matrix
    product replaces the n x k x d difference tensor, and the centroids are
    the one-hot membership matrix times the points, over the cluster counts.
    """
    n = points.shape[0]
    k = centroids.shape[0]
    rows = np.arange(n)
    point_sq = np.einsum("ij,ij->i", points, points)[:, None]

    def sq_dists(c: np.ndarray) -> np.ndarray:
        return point_sq - 2.0 * (points @ c.T) + np.einsum("ij,ij->i", c, c)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dists = sq_dists(centroids)
        # ties broken toward the lowest centroid index by argmin
        new_labels = np.argmin(dists, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            # an empty cluster takes the point farthest from its centroid
            # among clusters of two or more, so no cluster is emptied
            far = dists[rows, new_labels]
            for c in np.flatnonzero(counts == 0):
                worst = int(np.argmax(np.where(counts[new_labels] > 1, far, -np.inf)))
                counts[new_labels[worst]] -= 1
                new_labels[worst] = c
                counts[c] = 1
        membership = np.zeros((n, k))
        membership[rows, new_labels] = 1.0
        centroids = (membership.T @ points) / counts[:, None]
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    inertia = float(sq_dists(centroids)[rows, labels].sum())
    return labels, inertia


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with k-means++ seeding; best of 10 restarts by inertia."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-d array of row vectors")
    n = points.shape[0]
    if n < k or k < 1:
        raise InputError(f"need n >= k >= 1, got n={n}, k={k}")
    best_labels: np.ndarray | None = None
    best_inertia = np.inf
    for _ in range(10):
        centroids = _kmeans_pp_init(points, k, rng)
        labels, inertia = _lloyd(points, centroids, max_iters=300)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    assert best_labels is not None
    return best_labels, best_inertia


def template_cluster(g_o: Graph, model: TemplateModel, rng: np.random.Generator) -> ClusteringResult:
    """Optimize the embedding from a random start, then k-means its rows."""
    if g_o.n <= model.k:
        raise InputError(f"graph has n={g_o.n} vertices but template needs n > k={model.k}")
    a_o = g_o.adjacency
    p0 = random_stiefel(g_o.n, model.k, rng)
    p_opt, trace = steepest_descent(
        lambda p: objective(a_o, model, p),
        lambda p: euclidean_gradient(a_o, model, p),
        p0,
    )
    labels, _ = kmeans(p_opt.matrix, model.k, rng)
    return ClusteringResult(partition=labels, embedding=p_opt, trace=trace)
