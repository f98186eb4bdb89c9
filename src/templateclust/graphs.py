"""Undirected weighted graphs with dense adjacency, plus derived matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph stored as a dense symmetric adjacency matrix.

    Diagonal entries hold self-loop weights (used by template models only;
    observation graphs are zero-diagonal and {0,1}-valued).
    """

    adjacency: np.ndarray
    n: int = field(init=False)

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
