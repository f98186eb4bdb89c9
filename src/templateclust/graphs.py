"""Undirected weighted graphs with dense adjacency, plus derived matrices."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError, NumericalError


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph stored as a dense symmetric adjacency matrix.

    Diagonal entries hold self-loop weights. Only `build_graph` makes them;
    loaded and sampled observation graphs are zero-diagonal and {0,1}-valued.
    """

    adjacency: np.ndarray
    n: int = field(init=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise InputError("graph needs at least one vertex")
        if not np.isfinite(adj).all():
            raise InputError("adjacency contains non-finite values (NaN or inf)")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be exactly symmetric")
        adj = adj.copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "n", adj.shape[0])

    def total_edge_weight(self) -> float:
        """Sum of weights over unordered vertex pairs, excluding self-loops."""
        return float(np.triu(self.adjacency, k=1).sum())

    def eigh(self, key: str, matrix: Callable[[], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Read-only `np.linalg.eigh` of the matrix `key` names ("adjacency",
        "laplacian"), built by `matrix()` and factored on the first request
        only; the graph is immutable, so the factors never go stale."""
        if key not in self._factors:
            with np.errstate(over="ignore", invalid="ignore"):
                m = matrix()
            if not np.isfinite(m).all():
                raise NumericalError(f"the graph's {key} overflows: entries are not finite")
            self._factors[key] = np.linalg.eigh(m)
            for a in self._factors[key]:
                a.setflags(write=False)
        return self._factors[key]


def build_graph(edges: list[tuple[int, int, float]], n: int) -> Graph:
    """Assemble a graph from (i, j, w) triples; duplicate pairs accumulate.

    (i, j) and (j, i) denote the same undirected edge. A triple (i, i, w)
    adds a self-loop of weight w.
    """
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    adj = np.zeros((n, n))
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) out of range for n={n}")
        adj[i, j] += w
        if i != j:
            adj[j, i] += w
    return Graph(adj)


def degree_matrix(g: Graph) -> np.ndarray:
    """Weighted degree of each vertex as a length-n vector (row sums of A)."""
    return g.adjacency.sum(axis=1)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A."""
    return np.diag(degree_matrix(g)) - g.adjacency


def block_sums(adj: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Contraction Z^T A Z through the membership matrix Z of `labels`.

    Entry (c, d) sums A over rows in group c and columns in group d, so an
    edge inside a group counts twice and a self-loop once. Groups are
    ordered by label value.
    """
    if len(labels) != adj.shape[0]:
        raise InputError(f"labels cover {len(labels)} vertices but graph has {adj.shape[0]}")
    comms, idx = np.unique(labels, return_inverse=True)
    z = np.zeros((adj.shape[0], comms.size))
    z[np.arange(adj.shape[0]), idx] = 1.0
    return z.T @ adj @ z
