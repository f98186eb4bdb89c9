"""Baseline community detection: spectral, greedy modularity (CNM), Louvain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, block_sums, degree_matrix, laplacian
from templateclust.stiefel import StiefelPoint
from templateclust.template import kmeans


@dataclass(frozen=True)
class Partition:
    """Cluster labels canonicalized to 0..k_found-1 by first appearance."""

    labels: np.ndarray
    k_found: int = field(init=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.labels, dtype=int)
        if raw.ndim != 1 or raw.size == 0:
            raise InputError("labels must be a nonempty 1-d integer array")
        _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        # rank each distinct label by the position of its first appearance
        canonical = np.argsort(np.argsort(first))[inverse]
        canonical.setflags(write=False)
        object.__setattr__(self, "labels", canonical)
        object.__setattr__(self, "k_found", first.size)


def spectral_embedding(g: Graph, k: int) -> StiefelPoint:
    """Eigenvectors of the k smallest Laplacian eigenvalues, as columns.

    Each eigenvector's sign is fixed so its largest-magnitude entry is
    positive, making the embedding deterministic up to eigenvalue ties.
    """
    if g.n < k or k < 1:
        raise InputError(f"need n >= k >= 1, got n={g.n}, k={k}")
    _, evecs = g.eigh("laplacian", lambda: laplacian(g))
    embedding = evecs[:, :k].copy()
    for c in range(k):
        col = embedding[:, c]
        if col[np.argmax(np.abs(col))] < 0:
            embedding[:, c] = -col
    return StiefelPoint(embedding)


def spectral_cluster(g: Graph, k: int, rng: np.random.Generator) -> Partition:
    """Unnormalized spectral clustering: k-means on rows of the k bottom
    eigenvectors of L = D - A."""
    labels, _ = kmeans(spectral_embedding(g, k).matrix, k, rng)
    return Partition(labels)


def _check_edges(g: Graph) -> float:
    # modularity's degree-product null model is undefined for negative degrees
    if g.adjacency.min() < 0:
        i, j = np.argwhere(g.adjacency < 0)[0]
        raise InputError(
            f"modularity needs non-negative edge weights, got {g.adjacency[i, j]} "
            f"between vertices {i} and {j}"
        )
    two_m = float(g.adjacency.sum())
    if two_m <= 0:
        raise InputError("modularity undefined for graphs with no edges")
    return two_m


def modularity(g: Graph, part: Partition) -> float:
    """Modularity of a partition: intra-community edge mass minus the
    degree-based random expectation, normalized to [-1, 1]."""
    _check_edges(g)
    return _modularity_from_adj(block_sums(g.adjacency, part.labels))


def cnm_cluster(g: Graph) -> Partition:
    """Greedy agglomerative modularity maximization.

    Starts from singletons and repeatedly merges the community pair with
    the largest positive modularity gain; ties go to the lexicographically
    smallest pair of community ids. Communities live in a dense n x n
    cross-weight matrix, and a merge recomputes only the merged community's
    row and column of gains (Clauset, Newman & Moore 2004).
    """
    two_m = _check_edges(g)
    n = g.n
    deg = degree_matrix(g)
    # cross-weights between communities, joined only by positive edge
    # weights; the diagonal is never read
    cross = np.where(g.adjacency > 0, g.adjacency, 0.0)

    def gain(w: np.ndarray, d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
        dq = 2.0 * w / two_m - 2.0 * d_a * d_b / (two_m * two_m)
        return np.where(w > 0, dq, -np.inf)

    # gains[a, b] for joined pairs a < b, -inf elsewhere, so the row-major
    # first maximum is the lexicographically smallest best pair
    gains = np.full((n, n), -np.inf)
    upper = np.triu_indices(n, k=1)
    gains[upper] = gain(cross[upper], deg[upper[0]], deg[upper[1]])
    root = np.arange(n)
    while True:
        a, b = divmod(int(np.argmax(gains)), n)
        if not gains[a, b] > 1e-15:  # merge only strictly positive gains
            break
        # merge b into a
        root[root == b] = a
        deg[a] += deg[b]
        cross[a] += cross[b]
        cross[b] = 0.0
        cross[:, b] = 0.0
        cross[:, a] = cross[a]
        gains[b] = -np.inf
        gains[:, b] = -np.inf
        gains[a, a + 1 :] = gain(cross[a, a + 1 :], deg[a], deg[a + 1 :])
        gains[:a, a] = gain(cross[:a, a], deg[:a], deg[a])
    return Partition(root)


def _local_moving(adj: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> None:
    """One Louvain phase: move nodes to neighboring communities while any
    move improves modularity. Updates `labels` in place.

    The phase's off-diagonal nonzeros are listed once, row by row in
    ascending column order (CSR offsets `indptr`), so a visit reads only its
    true neighbours; the scan runs over plain Python lists.
    """
    n = adj.shape[0]
    two_m = float(adj.sum())
    deg_arr = adj.sum(axis=1)
    comm_deg = np.bincount(labels, weights=deg_arr, minlength=n).tolist()
    deg = deg_arr.tolist()
    rows, cols = np.nonzero(adj)
    off_diag = rows != cols  # self-loops never pull a vertex anywhere
    rows, cols = rows[off_diag], cols[off_diag]
    weights = adj[rows, cols].tolist()
    indptr = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    lab = labels.tolist()
    two_m_sq = two_m * two_m
    moved = True
    while moved:
        moved = False
        for i in rng.permutation(n).tolist():
            ci = lab[i]
            lo, hi = indptr[i], indptr[i + 1]
            # weight from i to each candidate community
            w_to: dict[int, float] = {}
            for j, w in zip(cols[lo:hi], weights[lo:hi]):
                c = lab[j]
                w_to[c] = w_to.get(c, 0.0) + w
            # detach i, then score re-insertion into each candidate community
            # by 2w/2m - 2 deg_i comm_deg/(2m)^2; terms constant across
            # candidates (deg_i^2, self-loops) drop out
            comm_deg[ci] -= deg[i]
            two_deg_i = 2.0 * deg[i]
            best_c = ci
            best_gain = 2.0 * w_to.get(ci, 0.0) / two_m - two_deg_i * comm_deg[ci] / two_m_sq
            for c, w in w_to.items():
                if c == ci:
                    continue
                g_c = 2.0 * w / two_m - two_deg_i * comm_deg[c] / two_m_sq
                if g_c > best_gain + 1e-12:
                    best_c, best_gain = c, g_c
            comm_deg[best_c] += deg[i]
            if best_c != ci:
                lab[i] = best_c
                moved = True
    labels[:] = lab


def louvain_cluster(g: Graph, rng: np.random.Generator) -> Partition:
    """Two-phase Louvain: local moving with shuffled visit order, then
    community aggregation, repeated until modularity stops improving."""
    _check_edges(g)
    adj = g.adjacency.copy()
    assignment = np.arange(g.n)  # maps original vertex -> current community index
    prev_q = -np.inf
    while True:
        labels = np.arange(adj.shape[0])
        _local_moving(adj, labels, rng)
        _, idx = np.unique(labels, return_inverse=True)
        assignment = idx[assignment]
        adj = block_sums(adj, labels)
        q = _modularity_from_adj(adj)
        if q <= prev_q + 1e-9:
            break
        prev_q = q
    return Partition(assignment)


def _modularity_from_adj(agg: np.ndarray) -> float:
    """Modularity of the identity partition of an aggregated multigraph."""
    two_m = agg.sum()
    deg = agg.sum(axis=1)
    return float(np.trace(agg) / two_m - np.sum((deg / two_m) ** 2))
