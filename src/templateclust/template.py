"""Template-guided clustering: match a graph onto a small community template.

The observation adjacency A_O is contracted through an orthonormal n x k
embedding P and compared against the template weights A_M.  Minimizing
||A_M - P^T A_O P||_F^2 over orthonormal frames yields an embedding whose
rows are clustered with k-means to produce the final partition.

With A_M = U diag(lambda) U^T and mu the eigenvalues of A_O, both ascending,
the eigenvalues of P^T A_O P interlace mu, so by Hoffman-Wielandt no frame
costs less than LB = sum_i dist(lambda_i, [mu_i, mu_{n-k+i}])^2.  When every
positive lambda lies above its interval and every negative one below it, the
eigenvector frame P* = V_S U^T attains LB (Umeyama 1988; Fan and Pall 1957),
where V_S holds the eigenvectors of A_O for the k_- smallest and the k - k_-
largest mu and k_- counts the negative lambda.  The descent then starts at
P* and stops at once; otherwise P* is a saddle and it starts at random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import Graph, symmetric_matrix
from templateclust.stiefel import DescentTrace, StiefelPoint, random_stiefel, steepest_descent

# P* certifies itself when its cost is within this much of LB, relative to
# max(1, ||A_M||_F^2); rounding leaves under 1e-15 on g6/40, g3/20 and
# c2/10/0.60 graphs.
CERTIFICATE_TOL = 1e-9


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


# np.sum adds a contiguous run of at most 128 values as eight running sums,
# one per position mod 8, combined as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) +
# (s6 + s7)), then adds the rest one by one; a longer run is split in two at a
# multiple of 8. With each whole block of eight stored in this order, that
# tree is three halvings.
_HALVING_ORDER = [0, 4, 2, 6, 1, 5, 3, 7]


def _sum_order(d: int) -> np.ndarray:
    order = np.arange(d)
    whole = d - d % 8
    order[:whole] = order[:whole].reshape(-1, 8)[:, _HALVING_ORDER].ravel()
    return order


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of terms stored in `_sum_order`, with the bits
    np.sum gives over the last axis of the same terms in natural order.
    Overwrites terms."""
    m = len(terms)
    if m < 8:
        return terms.sum(axis=0)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    whole = m - m % 8
    sums = terms[:8] if whole == 8 else terms[:whole].reshape(-1, 8, *terms.shape[1:]).sum(axis=0)
    np.add(sums[:4], sums[4:], out=sums[:4])
    np.add(sums[:2], sums[2:4], out=sums[:2])
    np.add(sums[0], sums[1], out=terms[whole - 1])
    return terms[whole - 1 :].sum(axis=0)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator, restarts: int) -> np.ndarray:
    """k-means++ centroids for every restart at once, shape (restarts, k, d).

    Each restart draws rng.integers(n), then rng.random(k - 1): the stream of
    a per-restart rng.choice(n, p=d2 / total), whose pick is the count of
    cdf <= u. A restart whose squared distances sum to 0 (fewer distinct rows
    than k) picks row floor(u * n) instead. Squared distances to a new seed
    are differences squared as (d, restarts, n) and summed over d by
    `_pairwise_sum`, the bits of the row sums of (restarts, n, d) squares.
    """
    n = points.shape[0]
    first, u = map(np.array, zip(*[(rng.integers(n), rng.random(k - 1)) for _ in range(restarts)]))
    idx = np.column_stack([first, (u * n).astype(int)])
    coords = points.T[_sum_order(points.shape[1])]
    tiled = np.repeat(coords[:, None, :], restarts, axis=1)

    def sq_dists(rows: np.ndarray) -> np.ndarray:
        diff = tiled - coords[:, rows, None]
        diff *= diff
        return _pairwise_sum(diff)

    d2 = sq_dists(first)
    with np.errstate(invalid="ignore"):  # 0 / 0 where the distances sum to 0
        for c in range(1, k):
            total = d2.sum(axis=1, keepdims=True)
            cdf = np.cumsum(d2 / total, axis=1)
            picked = (cdf / cdf[:, -1:] <= u[:, c - 1 : c]).sum(axis=1)
            np.copyto(idx[:, c], picked, where=total[:, 0] > 0)
            if c < k - 1:
                np.minimum(d2, sq_dists(idx[:, c]), out=d2)
    return points[idx]


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """At most max_iters >= 1 Lloyd iterations from each restart's centroids
    (R, k, d), all at once; returns labels (R, n) and inertias (R,).

    Each iteration puts the live restarts' squared distances ||x||^2 - 2 x.c
    + ||c||^2 into one (R, k, n) array and labels every row with the
    lowest-numbered centroid at the least distance. Centroids are the
    transposed one-hot membership times the points, over the counts. A
    restart retires, and leaves the arrays, when its labels repeat: its
    centroids have not moved, so its inertia is the sum of that iteration's
    least distances. One still moving after max_iters gets the inertia of its
    last centroids. No restart's arithmetic depends on its slot or on the
    others, so each ends with the bits it would reach alone."""
    restarts, k, _ = centroids.shape
    n = points.shape[0]
    point_sq = np.einsum("ij,ij->i", points, points)
    offsets = k * np.arange(restarts)[:, None]  # each slot's first bincount bin
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]  # k - j, largest for the lowest j
    one_hot = np.eye(k)

    def sq_dists(c: np.ndarray) -> np.ndarray:
        # one (n, d) x (d, k) product per restart: BLAS rounds the transposed
        # (k, d) x (d, n) product differently at some sizes. Doubling is exact,
        # so (-2 x.c + ||x||^2) + ||c||^2 has the bits of ||x||^2 - 2 x.c + ||c||^2
        dots = points @ c.transpose(0, 2, 1)
        dots *= -2.0
        dists = np.add(dots.transpose(0, 2, 1), point_sq, order="C")
        dists += np.einsum("rij,rij->ri", c, c)[:, :, None]
        return dists

    final_labels = np.empty((restarts, n), dtype=int)
    inertia = np.empty(restarts)
    live = np.arange(restarts)  # the restart in each slot of the arrays below
    # no centroid is numbered k, so the first labels never repeat: with k = 1
    # they are all 0 while the centroids are still the seeds
    labels = np.full((restarts, n), k)
    for _ in range(max_iters):
        dists = sq_dists(centroids)
        nearest = dists.min(axis=1, keepdims=True)
        new_labels = k - ((dists == nearest) * rank).max(axis=1)  # the first j at the least distance
        counts = np.bincount((new_labels + offsets).ravel(), minlength=offsets.size * k).reshape(-1, k)
        # an empty cluster takes the point farthest from its centroid among
        # clusters of two or more, so no cluster is emptied
        if not counts.all():
            for r, c in zip(*np.nonzero(counts == 0)):
                far = np.where(counts[r, new_labels[r]] > 1, nearest[r, 0], -np.inf)
                worst = int(np.argmax(far))
                counts[r, new_labels[r, worst]] -= 1
                new_labels[r, worst] = c
                nearest[r, 0, worst] = dists[r, c, worst]
                counts[r, c] = 1
        moved = (new_labels != labels).any(axis=1)
        if not moved.all():
            # the entries of restarts still moving are overwritten later
            final_labels[live] = new_labels
            inertia[live] = nearest[:, 0].sum(axis=1)
            live, new_labels, counts = live[moved], new_labels[moved], counts[moved]
            if not live.size:
                return final_labels, inertia
            offsets = offsets[: live.size]
        centroids = (one_hot.take(new_labels, axis=0).transpose(0, 2, 1) @ points) / counts[:, :, None]
        labels = new_labels
    final_labels[live] = labels
    inertia[live] = np.take_along_axis(sq_dists(centroids), labels[:, None], axis=1)[:, 0].sum(axis=1)
    return final_labels, inertia


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with k-means++ seeding; best of 10 restarts by inertia,
    seeded and iterated as one batch in which each restart gets its own
    sequential result; the first of equal inertias wins."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-d array of row vectors")
    if not np.isfinite(points).all():
        raise InputError("points contain non-finite values (NaN or inf)")
    if not 1 <= k <= len(points):
        raise InputError(f"need n >= k >= 1, got n={len(points)}, k={k}")
    # centroids are means of rows, so every squared distance and every term of
    # ||x||^2 - 2 x.c + ||c||^2 is at most 4 ||X||_F^2, and 4 n ||X||_F^2
    # bounds each sum that seeding and Lloyd take
    with np.errstate(over="ignore"):
        bound = 4.0 * len(points) * float(np.vdot(points, points))
    if not np.isfinite(bound):
        raise NumericalError("k-means squared distances overflow: the points lie too far from the origin")
    labels, inertia = _lloyd(points, _kmeans_pp_init(points, k, rng, restarts=10), max_iters=300)
    best = int(np.argmin(inertia))
    return labels[best], float(inertia[best])


def eigenvector_start(g_o: Graph, model: TemplateModel) -> tuple[StiefelPoint, float]:
    """The eigenvector frame P* = V_S U^T and the interlacing lower bound LB
    on the misfit, as defined in the module docstring; A_O's factors come
    from the graph's memo."""
    lam, u = np.linalg.eigh(model.weights)
    mu, v = g_o.eigh("adjacency", lambda: g_o.adjacency)
    n, k = mu.size, lam.size
    negative = int(np.count_nonzero(lam < 0))
    v_s = np.hstack([v[:, :negative], v[:, n - k + negative :]])
    with np.errstate(over="ignore", invalid="ignore"):
        excess = np.maximum(mu[:k] - lam, 0.0) + np.maximum(lam - mu[n - k :], 0.0)
        lower_bound = float(np.sum(excess * excess))
    return StiefelPoint(v_s @ u.T), lower_bound


def template_cluster(g_o: Graph, model: TemplateModel, rng: np.random.Generator) -> ClusteringResult:
    """Optimize the embedding, then k-means its rows.

    The descent starts at the eigenvector frame P* when P* certifies itself,
    costing no more than LB + CERTIFICATE_TOL * max(1, ||A_M||_F^2); it then
    stops at once on the gradient with no iterations and no draw from `rng`
    for the start. Otherwise (some template eigenvalue lies inside its
    interval, where P* is a saddle) it starts at a random frame. Ties at
    the selection boundary, such as mu_{n-k} = mu_{n-k+1}, make P*
    non-unique but deterministic. The result carries LB as `lower_bound`.
    """
    if g_o.n <= model.k:
        raise InputError(f"graph has n={g_o.n} vertices but template needs n > k={model.k}")
    a_o = g_o.adjacency
    p_star, lower_bound = eigenvector_start(g_o, model)
    with np.errstate(over="ignore"):
        slack = CERTIFICATE_TOL * max(1.0, float(np.sum(model.weights**2)))
    certified = objective(a_o, model, p_star) <= lower_bound + slack
    p0 = p_star if certified else random_stiefel(g_o.n, model.k, rng)
    p_opt, trace = steepest_descent(
        lambda p: objective(a_o, model, p),
        lambda p: euclidean_gradient(a_o, model, p),
        p0,
    )
    labels, _ = kmeans(p_opt.matrix, model.k, rng)
    labels.setflags(write=False)
    return ClusteringResult(partition=labels, embedding=p_opt, trace=trace, lower_bound=lower_bound)
