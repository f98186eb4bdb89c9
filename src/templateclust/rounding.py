"""Rounding: k clusters from the rows of an n x k embedding.

`tb` rounds by `pivoted_qr_seeds` and one Lloyd run of `kmeans` from them on
the row-normalized embedding, drawing nothing from an rng. The spectral
baseline rounds by `kmeans`' k-means++ seeding and `RESTARTS` restarts."""

from __future__ import annotations

import numpy as np

from templateclust.errors import InputError, NumericalError

RESTARTS = 10


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centroids for every restart at once, shape (RESTARTS, k, d).

    Each restart draws rng.integers(n), then rng.random(k - 1): the stream of
    a per-restart rng.choice(n, p=d2 / total), whose pick is the count of
    cdf <= u. A restart whose squared distances sum to 0 (fewer distinct rows
    than k) picks row floor(u * n) instead. Squared distances to a new seed
    are differences squared as (d, RESTARTS, n) and summed over d in order.
    For d >= 8 a distance can differ in the last bit from np.sum's pairwise
    sum of a row; only the picks depend on the distances.
    """
    n = points.shape[0]
    first, u = map(np.array, zip(*[(rng.integers(n), rng.random(k - 1)) for _ in range(RESTARTS)]))
    idx = np.column_stack([first, (u * n).astype(int)])
    coords = points.T
    tiled = np.repeat(coords[:, None, :], RESTARTS, axis=1)

    def sq_dists(rows: np.ndarray) -> np.ndarray:
        diff = tiled - coords[:, rows, None]
        diff *= diff
        return diff.sum(axis=0)

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


def _checked_points(points: np.ndarray, k: int) -> np.ndarray:
    """points as a float array of n >= k >= 1 finite rows, or InputError."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-d array of row vectors")
    if not np.isfinite(points).all():
        raise InputError("points contain non-finite values (NaN or inf)")
    if not 1 <= k <= len(points):
        raise InputError(f"need n >= k >= 1, got n={len(points)}, k={k}")
    return points


def pivoted_qr_seeds(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows divided by their norms (zero rows kept, as Ng, Jordan and Weiss
    2002 cluster unit rows) and k Lloyd centroids (k, d) for them, drawn from
    no rng.

    The k pivots are the rows a greedy pivoted QR of points^T picks (Damle,
    Minden and Ying 2019): at each step the row of largest residual norm, the
    first on a tie, which is then projected out of every row. They come from
    the raw rows, whose norms seldom tie; unit rows would tie at the first
    pick. Each unit row takes the label j of its largest |(rows W)_ij|, with W
    the orthogonal polar factor of the pivots' unit rows transposed, and each
    centroid is its label's mean unit row, or its pivot's when no row takes
    the label. The points are first scaled by an exact power of 2, so no
    square overflows. A residual norm at most max(n, d) eps times the largest
    row norm counts as zero, so fewer than k independent rows raise
    NumericalError naming the rank.
    """
    points = _checked_points(points, k)
    n, d = points.shape
    points = np.ldexp(points, -np.frexp(np.abs(points).max())[1])  # largest |entry| in [1/2, 1)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    tol = max(n, d) * np.finfo(float).eps * norms.max()
    residual = points.copy()
    pivots = []
    for rank in range(k):
        sq = np.einsum("ij,ij->i", residual, residual)
        pivot = int(np.argmax(sq))
        if not sq[pivot] > tol * tol:
            raise NumericalError(f"pivoted-QR seeding needs k={k} independent rows, but the points have rank {rank}")
        pivots.append(pivot)
        q = residual[pivot] / np.sqrt(sq[pivot])
        residual -= np.outer(residual @ q, q)
    rows = points / np.where(norms > 0, norms, 1.0)[:, None]
    u, _, vt = np.linalg.svd(rows[pivots].T, full_matrices=False)
    labels = np.argmax(np.abs(rows @ (u @ vt)), axis=1)
    counts = np.bincount(labels, minlength=k)[:, None]
    sums = np.eye(k)[labels].T @ rows
    return rows, np.where(counts > 0, sums / np.maximum(counts, 1), rows[pivots])


def kmeans(
    points: np.ndarray, k: int, rng: np.random.Generator, centroids: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm; returns labels and inertia.

    Without `centroids`, k-means++ seeding and the best of `RESTARTS` restarts
    by inertia, seeded and run as one batch in which each restart gets its own
    sequential result; the first of equal inertias wins. Given k finite
    centroids (k, d), one Lloyd run from them, which draws nothing from `rng`.
    """
    points = _checked_points(points, k)
    if centroids is not None:
        centroids = np.asarray(centroids, dtype=float)
        if centroids.shape != (k, points.shape[1]) or not np.isfinite(centroids).all():
            raise InputError(f"centroids must be {k} finite rows of {points.shape[1]} coordinates")
    # after the first iteration centroids are means of rows, so every squared
    # distance and every term of ||x||^2 - 2 x.c + ||c||^2 is at most
    # 4 (||X||_F^2 + ||C||_F^2), with C the given centroids (none for k-means++,
    # whose seeds are rows), and n times that bounds each sum seeding and Lloyd take
    with np.errstate(over="ignore"):
        mass = float(np.vdot(points, points)) + (0.0 if centroids is None else float(np.vdot(centroids, centroids)))
        bound = 4.0 * len(points) * mass
    if not np.isfinite(bound):
        raise NumericalError("k-means squared distances overflow: the points lie too far from the origin")
    seeds = _kmeans_pp_init(points, k, rng) if centroids is None else centroids[None]
    labels, inertia = _lloyd(points, seeds, max_iters=300)
    best = int(np.argmin(inertia))
    return labels[best], float(inertia[best])
