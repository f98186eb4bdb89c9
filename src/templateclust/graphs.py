"""Undirected weighted graphs with dense adjacency, plus derived matrices."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError, NumericalError


def symmetric_matrix(m: object, what: str) -> np.ndarray:
    """A read-only float copy of `m`, which must be a nonempty square matrix
    of finite real numbers that is exactly symmetric; InputError names `what`
    otherwise."""
    try:
        m = np.asarray(m)
    except ValueError:  # a ragged nested sequence has no shape
        raise InputError(f"{what} must be a nonempty square matrix of numbers, got a ragged sequence") from None
    if m.dtype.kind not in "biuf" or m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InputError(f"{what} must be a nonempty square matrix of numbers, got {m.dtype} of shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError(f"non-finite values (NaN or inf) in {what}")
    if not np.array_equal(m, m.T):
        raise InputError(f"{what} must be exactly symmetric")
    m = m.astype(float)
    m.setflags(write=False)
    return m


def _integers(x: np.ndarray) -> bool:
    """Whether every value of `x` is an int or bool, or a float that is a
    whole number within int64."""
    kind = x.dtype.kind
    return kind in "bi" or kind in "uf" and bool(np.all((np.round(x) == x) & (abs(x) < 2.0**63)))


def integer_vector(x: object, what: str) -> np.ndarray:
    """A read-only int copy of `x`, which must be a nonempty 1-d array of
    integers: int or bool values, or floats that are whole numbers within
    int64. Fractions, NaN, strings, objects and ragged sequences raise
    InputError naming `what`."""
    rule = f"{what} must be a nonempty 1-d integer array"
    try:
        x = np.asarray(x)
    except ValueError:  # a ragged nested sequence has no shape
        raise InputError(rule) from None
    if x.ndim != 1 or x.size == 0 or not _integers(x):
        raise InputError(rule)
    x = x.astype(int)
    x.setflags(write=False)
    return x


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
        object.__setattr__(self, "adjacency", symmetric_matrix(self.adjacency, "adjacency"))
        object.__setattr__(self, "n", self.adjacency.shape[0])

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
    adds a self-loop of weight w. Vertex ids and n must be integers, by
    `integer_vector`'s rule, and each weight a real number: an int, bool or
    float, never a string, None or a complex number.
    """
    if np.ndim(n) or not _integers(np.asarray(n)) or n < 1:
        raise InputError(f"vertex count must be an integer >= 1, got {n!r}")
    n = int(n)
    adj = np.zeros((n, n))
    for i, j, w in edges:
        if np.ndim(i) or np.ndim(j) or not _integers(np.asarray([i, j])):
            raise InputError(f"edge ({i!r}, {j!r}) has a vertex id that is not an integer")
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) out of range for n={n}")
        if np.ndim(w) or np.asarray(w).dtype.kind not in "biuf":
            raise InputError(f"edge ({i}, {j}) has weight {w!r}, which is not a real number")
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
