"""Rounding: k clusters from the rows of an n x k embedding.

`tb` and the spectral baseline round their embeddings the same way:
`pivoted_qr_seeds` on the rows, then one Lloyd run of `kmeans` from those
seeds on the row-normalized rows. Nothing here draws a random number."""

from __future__ import annotations

import numpy as np

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import count

EPS = np.finfo(float).eps


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iters: int) -> tuple[np.ndarray, float]:
    """At most max_iters >= 1 Lloyd iterations from centroids (k, d); returns
    labels (n,) and the inertia.

    Each iteration puts the squared distances ||x||^2 - 2 x.c + ||c||^2 into
    one (k, n) array and labels every row with the lowest-numbered centroid
    at the least distance. Centroids are the transposed one-hot membership
    times the points, over the counts. The run stops when its labels repeat:
    its centroids have not moved, so its inertia is the sum of that
    iteration's least distances. A run still moving after max_iters gets the
    inertia of its last centroids."""
    k = centroids.shape[0]
    rows = np.arange(points.shape[0])
    point_sq = np.einsum("ij,ij->i", points, points)
    one_hot = np.eye(k)

    def sq_dists(c: np.ndarray) -> np.ndarray:
        # one (n, d) x (d, k) product: BLAS rounds the transposed (k, d) x
        # (d, n) product differently at some sizes. Doubling is exact, so
        # (-2 x.c + ||x||^2) + ||c||^2 has the bits of ||x||^2 - 2 x.c + ||c||^2
        dots = points @ c.T
        dots *= -2.0
        dists = np.add(dots.T, point_sq, order="C")
        dists += np.einsum("ij,ij->i", c, c)[:, None]
        return dists

    # no centroid is numbered k, so the first labels never repeat: with k = 1
    # they are all 0 while the centroids are still the seeds
    labels = np.full(rows.size, k)
    for _ in range(max_iters):
        dists = sq_dists(centroids)
        new_labels = dists.argmin(axis=0)  # the first j at the least distance
        nearest = dists[new_labels, rows]
        counts = np.bincount(new_labels, minlength=k)
        # an empty cluster takes the point farthest from its centroid among
        # clusters of two or more, so no cluster is emptied
        if not counts.all():
            for c in np.flatnonzero(counts == 0):
                worst = int(np.argmax(np.where(counts[new_labels] > 1, nearest, -np.inf)))
                counts[new_labels[worst]] -= 1
                new_labels[worst] = c
                nearest[worst] = dists[c, worst]
                counts[c] = 1
        if (new_labels == labels).all():
            return labels, float(nearest.sum())
        centroids = (one_hot.take(new_labels, axis=0).T @ points) / counts[:, None]
        labels = new_labels
    return labels, float(sq_dists(centroids)[labels, rows].sum())


def _checked_points(points: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """points as a float array of n >= 1 finite rows and k as a count up to n, or InputError."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-d array of row vectors")
    if not len(points):
        raise InputError("points must hold at least one row")
    if not np.isfinite(points).all():
        raise InputError("points contain non-finite values (NaN or inf)")
    return points, count(k, "k", 1, len(points))


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
    square overflows. A residual or row norm at most max(n, d) eps times the
    largest row norm counts as zero: fewer than k independent rows raise
    NumericalError naming the rank, and a row that is zero but for rounding
    (a vertex off the components the frame spans) stays zero rather than
    take its rounding's direction.
    """
    points, k = _checked_points(points, k)
    n, d = points.shape
    points = np.ldexp(points, -np.frexp(np.abs(points).max())[1])  # largest |entry| in [1/2, 1)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    tol = max(n, d) * EPS * norms.max()
    residual = points.copy()
    pivots = []
    for rank in range(k):
        sq = np.einsum("ij,ij->i", residual, residual)
        pivot = int(np.argmax(sq))
        if not sq[pivot] > tol * tol:
            raise NumericalError(f"pivoted-QR seeding needs k={k} independent rows, but the points have rank {rank}")
        pivots.append(pivot)
        q = residual[pivot] / np.sqrt(sq[pivot])
        residual -= (residual @ q)[:, None] * q  # np.outer's products
    kept = norms > tol
    rows = np.where(kept[:, None], points, 0.0) / np.where(kept, norms, 1.0)[:, None]
    seeds = rows[pivots]
    u, _, vt = np.linalg.svd(seeds.T, full_matrices=False)
    labels = np.argmax(np.abs(rows @ (u @ vt)), axis=1)
    counts = np.bincount(labels, minlength=k)[:, None]
    sums = np.eye(k)[labels].T @ rows
    return rows, np.where(counts > 0, sums / np.maximum(counts, 1), seeds)


def kmeans(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, float]:
    """One Lloyd run from k = len(centroids) finite centroids (k, d); returns
    labels and inertia. Lloyd is deterministic, so nothing is drawn."""
    centroids = np.asarray(centroids, dtype=float)
    points, k = _checked_points(points, len(centroids) if centroids.ndim else 0)
    if centroids.shape != (k, points.shape[1]) or not np.isfinite(centroids).all():
        raise InputError(f"centroids must be {k} finite rows of {points.shape[1]} coordinates")
    # after the first iteration centroids are means of rows, so every squared
    # distance and every term of ||x||^2 - 2 x.c + ||c||^2 is at most
    # 4 (||X||_F^2 + ||C||_F^2), with C the given centroids, and n times that
    # bounds each sum Lloyd takes
    with np.errstate(over="ignore"):
        bound = 4.0 * len(points) * (float(np.vdot(points, points)) + float(np.vdot(centroids, centroids)))
    if not np.isfinite(bound):
        raise NumericalError("k-means squared distances overflow: the points lie too far from the origin")
    return _lloyd(points, centroids, max_iters=300)
