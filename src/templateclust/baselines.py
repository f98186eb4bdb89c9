"""Baseline community detection: spectral, greedy modularity (CNM), Louvain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import Graph, block_sums, degree_matrix, integer_vector, laplacian
from templateclust.stiefel import StiefelPoint
from templateclust.template import kmeans


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster labels canonicalized to 0..k_found-1 by first appearance."""

    labels: np.ndarray
    k_found: int = field(init=False)

    def __post_init__(self) -> None:
        raw = integer_vector(self.labels, "labels")
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


def _gain_scale(g: Graph) -> float:
    """2m of a graph whose modularity gains' degree term, 2 d_a d_b/(2m)^2,
    can be computed: NumericalError when (2m)^2 overflows or underflows."""
    two_m = _check_edges(g)
    if not 0.0 < two_m * two_m < np.inf:
        raise NumericalError(f"modularity gains need (2m)^2 finite and nonzero, got 2m = {two_m:.3e}")
    return two_m


def modularity(g: Graph, part: Partition) -> float:
    """Modularity of a partition: intra-community edge mass minus the
    degree-based random expectation, normalized to [-1, 1]."""
    _check_edges(g)
    return _modularity_from_adj(block_sums(g.adjacency, part.labels))


def cnm_cluster(g: Graph) -> Partition:
    """Greedy agglomerative modularity maximization (Clauset, Newman & Moore 2004).

    Starts from singletons and repeatedly merges the community pair with
    the largest positive modularity gain; ties go to the lexicographically
    smallest pair of community ids, and the merged community keeps the
    smaller id. Two dense n x n matrices hold the communities'
    cross-weights and their symmetric gains; a merge recomputes the merged
    community's row of gains and copies it to its column. An upper bound on
    each row's largest gain, raised when a gain grows and tightened when the
    row is read, finds the best pair in a few rows instead of a scan of the
    whole matrix, and gives the same merges in the same order.

    Raises NumericalError when (2m)^2 overflows or underflows, so that the
    gains' degree term cannot be computed.
    """
    two_m = _gain_scale(g)
    two_m_sq = two_m * two_m
    n = g.n
    deg = degree_matrix(g)
    cross = g.adjacency.copy()  # cross-weights between communities; the diagonal is never read
    # gains[a, b] = 2 w_ab/2m - 2 d_a d_b/(2m)^2. A pair with no edge has a
    # gain <= 0, and only gains above 1e-15 are merged, so any positive
    # maximum is a joined pair. By symmetry the row-major first maximum
    # (a, b) has a < b and is the lexicographically smallest best pair.
    gains = 2.0 * cross / two_m - (2.0 * deg)[:, None] * deg / two_m_sq
    np.fill_diagonal(gains, -np.inf)
    best = gains.max(axis=1)
    dead = np.zeros(n, dtype=bool)
    degree_term = np.empty(n)
    merges = []
    while True:
        a = int(np.argmax(best))
        b = int(np.argmax(gains[a]))
        top = gains[a, b]
        if top < best[a]:  # a stale bound: tighten it and look again
            best[a] = top
            continue
        # top is the largest gain; a is the first row reaching it
        if not top > 1e-15:  # merge only strictly positive gains
            break
        # merge b into a
        merges.append((a, b))
        dead[b] = True
        deg[a] += deg[b]
        cross[a] += cross[b]
        cross[:, a] = cross[a]
        row = gains[a]
        np.multiply(cross[a], 2.0, out=row)
        row /= two_m
        np.multiply(deg, 2.0 * deg[a], out=degree_term)
        degree_term /= two_m_sq
        row -= degree_term
        row[dead] = -np.inf
        row[a] = -np.inf
        gains[:, a] = row
        gains[b] = -np.inf
        gains[:, b] = -np.inf
        np.maximum(best, row, out=best)
        best[a] = row.max()
        best[b] = -np.inf
    # in reverse, each absorbed id takes its absorber's final community
    root = list(range(n))
    for a, b in reversed(merges):
        root[b] = root[a]
    return Partition(np.array(root))


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
    community aggregation, repeated until modularity stops improving.

    Raises NumericalError when (2m)^2 overflows or underflows, as
    `cnm_cluster` does.
    """
    _gain_scale(g)
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
