"""Clustering evaluation: partitions and ground truth, adjusted Rand index
and projector distance."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import integer_vector
from templateclust.stiefel import StiefelPoint


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Reference community labels for a graph, values in {0..k-1}."""

    labels: np.ndarray
    k: int = field(init=False)
    sizes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        labels = integer_vector(self.labels, "labels")
        k = int(labels.max()) + 1
        if labels.min() < 0 or np.any((sizes := np.bincount(labels, minlength=k)) == 0):
            raise InputError("labels must cover 0..k-1 with every community nonempty")
        sizes.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sizes", sizes)

    def indicator(self) -> np.ndarray:
        """Binary n x k membership matrix, one 1 per row."""
        b = np.zeros((self.labels.size, self.k))
        b[np.arange(self.labels.size), self.labels] = 1.0
        return b


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster labels canonicalized to 0..k_found-1 by first appearance.

    The package's one rule for renumbering a labeling: labels in [0, n), as
    every method here gives, find their first appearances by counting; any
    other labels go through np.unique."""

    labels: np.ndarray
    k_found: int = field(init=False)

    def __post_init__(self) -> None:
        raw = integer_vector(self.labels, "labels")
        n = raw.size
        if raw.min() >= 0 and raw.max() < n:
            first = np.full(n, n)  # each label's first position; n where absent
            np.minimum.at(first, raw, np.arange(n))
            order = np.sort(first[first < n])  # the first appearances, in order
            ids = np.empty(n, dtype=int)
            ids[raw[order]] = np.arange(order.size)
            canonical, k_found = ids[raw], order.size
        else:
            _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
            # rank each distinct label by the position of its first appearance
            canonical, k_found = np.argsort(np.argsort(first))[inverse], first.size
        canonical.setflags(write=False)
        object.__setattr__(self, "labels", canonical)
        object.__setattr__(self, "k_found", k_found)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Chance-corrected pair-counting agreement between two labelings.

    1 means identical up to relabeling; 0 is the chance level.  When both
    partitions are degenerate (all singletons or a single cluster each) the
    chance correction is undefined; returns 1 if they agree, else 0.
    The contingency table is indexed by the two labelings' `Partition`s.
    """
    pa, pb = Partition(a), Partition(b)
    if pa.labels.shape != pb.labels.shape:
        raise InputError(f"label arrays must share a 1-d shape, got {pa.labels.shape} vs {pb.labels.shape}")
    n = pa.labels.size
    if n < 2:
        raise InputError("need at least two elements to compare partitions")

    ka, kb = pa.k_found, pb.k_found
    contingency = np.bincount(pa.labels * kb + pb.labels, minlength=ka * kb).reshape(ka, kb)

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1) // 2

    sum_cells = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    total = comb2(np.array(n))

    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        # degenerate denominator only when both partitions are all-singletons
        # or both a single cluster -- identical partitions either way
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def closest_orthonormal(gt: GroundTruth) -> StiefelPoint:
    """Polar factor of the ground truth's indicator (nearest orthonormal
    frame): the indicator with each column scaled by the inverse square root
    of its community size."""
    return StiefelPoint(gt.indicator() / np.sqrt(gt.sizes))


def projector_distance(p: StiefelPoint, p_star: StiefelPoint) -> float:
    """Squared Frobenius distance ||P P^T - Q Q^T||^2 between the
    column-space projectors of P = `p` (n x k) and Q = `p_star` (n x k').

    Computed from k x k products as ||P^T P||^2 + ||Q^T Q||^2 - 2 ||P^T Q||^2,
    the same sum expanded by the trace's cyclic property, so no n x n
    projector is formed; rounding can take it a few ulps below 0, so it is
    clamped there. Invariant to right-multiplication by orthogonal matrices;
    0 iff the two embeddings span the same subspace; at most k + k'.
    """
    if p.shape[0] != p_star.shape[0]:
        raise InputError(f"embeddings disagree on n: {p.shape} vs {p_star.shape}")
    p, q = p.matrix, p_star.matrix
    pp, qq, pq = (np.sum(m * m) for m in (p.T @ p, q.T @ q, p.T @ q))
    return max(float(pp + qq - 2.0 * pq), 0.0)
