"""Clustering evaluation: adjusted Rand index and projector distance."""

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


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Chance-corrected pair-counting agreement between two labelings.

    1 means identical up to relabeling; 0 is the chance level.  When both
    partitions are degenerate (all singletons or a single cluster each) the
    chance correction is undefined; returns 1 if they agree, else 0.
    """
    a = integer_vector(a, "labels")
    b = integer_vector(b, "labels")
    if a.shape != b.shape:
        raise InputError(f"label arrays must share a 1-d shape, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise InputError("need at least two elements to compare partitions")

    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    ka, kb = a_idx.max() + 1, b_idx.max() + 1
    contingency = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(contingency, (a_idx, b_idx), 1)

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


def closest_orthonormal(b: np.ndarray) -> StiefelPoint:
    """Polar factor of a binary indicator matrix (nearest orthonormal frame).

    For an indicator this is just the indicator with each column scaled by
    the inverse square root of its community size.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise InputError("indicator must be 2-d")
    if not np.all((b == 0) | (b == 1)) or not np.all(b.sum(axis=1) == 1):
        raise InputError("each row must contain exactly one 1")
    sizes = b.sum(axis=0)
    if np.any(sizes == 0):
        raise InputError("indicator has an empty column")
    return StiefelPoint(b / np.sqrt(sizes))


def projector_distance(p: StiefelPoint, p_star: StiefelPoint) -> float:
    """Squared Frobenius distance between the column-space projectors.

    Invariant to right-multiplication by orthogonal matrices; 0 iff the two
    embeddings span the same subspace; at most 2k.
    """
    if p.shape[0] != p_star.shape[0]:
        raise InputError(f"embeddings disagree on n: {p.shape} vs {p_star.shape}")
    diff = p.matrix @ p.matrix.T - p_star.matrix @ p_star.matrix.T
    return float(np.sum(diff * diff))
