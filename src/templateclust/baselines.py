"""Baseline community detection: spectral, greedy modularity (CNM), Louvain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, degree_matrix, laplacian
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
    _, evecs = np.linalg.eigh(laplacian(g))
    embedding = evecs[:, :k].copy()
    for c in range(k):
        col = embedding[:, c]
        if col[np.argmax(np.abs(col))] < 0:
            embedding[:, c] = -col
    return StiefelPoint(embedding)


def spectral_cluster(g: Graph, k: int, rng: np.random.Generator | None = None) -> Partition:
    """Unnormalized spectral clustering: k-means on rows of the k bottom
    eigenvectors of L = D - A."""
    if rng is None:
        rng = np.random.default_rng()
    labels, _ = kmeans(spectral_embedding(g, k).matrix, k, rng)
    return Partition(labels)


def _check_edges(g: Graph) -> float:
    two_m = float(g.adjacency.sum())
    if two_m <= 0:
        raise InputError("modularity undefined for graphs with no edges")
    return two_m


def modularity(g: Graph, part: Partition) -> float:
    """Modularity of a partition: intra-community edge mass minus the
    degree-based random expectation, normalized to [-1, 1]."""
    two_m = _check_edges(g)
    d = degree_matrix(g)
    labels = part.labels
    q = 0.0
    for c in range(part.k_found):
        mask = labels == c
        intra = g.adjacency[np.ix_(mask, mask)].sum()
        deg_sum = d[mask].sum()
        q += intra / two_m - (deg_sum / two_m) ** 2
    return float(q)


def cnm_cluster(g: Graph) -> Partition:
    """Greedy agglomerative modularity maximization.

    Starts from singletons and repeatedly merges the community pair with
    the largest positive modularity gain; ties go to the lexicographically
    smallest pair of community ids.
    """
    two_m = _check_edges(g)
    n = g.n
    degrees = degree_matrix(g)
    # community state: cross-weights and degree sums, keyed by community id
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    deg = {i: float(degrees[i]) for i in range(n)}
    cross: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.adjacency[i, j]
            if w > 0:
                cross[(i, j)] = float(w)

    def gain(pair: tuple[int, int]) -> float:
        a, b = pair
        return 2.0 * cross[pair] / two_m - 2.0 * deg[a] * deg[b] / (two_m * two_m)

    while cross:
        best_pair = None
        best_gain = 1e-15  # merge only strictly positive gains
        for pair in sorted(cross):
            dq = gain(pair)
            if dq > best_gain:
                best_pair, best_gain = pair, dq
        if best_pair is None:
            break
        a, b = best_pair
        # merge b into a
        members[a].extend(members.pop(b))
        deg[a] += deg.pop(b)
        merged: dict[int, float] = {}
        for (u, v), w in list(cross.items()):
            if b in (u, v):
                del cross[(u, v)]
                other = v if u == b else u
                if other != a:
                    merged[other] = merged.get(other, 0.0) + w
        for other, w in merged.items():
            key = (min(a, other), max(a, other))
            cross[key] = cross.get(key, 0.0) + w
        cross.pop((a, a), None)

    labels = np.empty(n, dtype=int)
    for cid, (root, verts) in enumerate(sorted(members.items())):
        for v in verts:
            labels[v] = cid
    return Partition(labels)


def _local_moving(
    adj: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, bool]:
    """One Louvain phase: move nodes to neighboring communities while any
    move improves modularity."""
    n = adj.shape[0]
    two_m = adj.sum()
    deg = adj.sum(axis=1)
    comm_deg = np.bincount(labels, weights=deg, minlength=n)
    improved = False
    moved = True
    while moved:
        moved = False
        order = rng.permutation(n)
        for i in order:
            ci = labels[i]
            neigh = np.nonzero(adj[i])[0]
            # weight from i to each candidate community (self-loop excluded)
            w_to: dict[int, float] = {}
            for j in neigh:
                if j == i:
                    continue
                w_to.setdefault(labels[j], 0.0)
                w_to[labels[j]] += adj[i, j]
            # detach i, then score re-insertion into each candidate community;
            # terms constant across candidates (deg_i^2, self-loops) drop out
            comm_deg[ci] -= deg[i]

            def insert_gain(c: int, w: float) -> float:
                return 2.0 * w / two_m - 2.0 * deg[i] * comm_deg[c] / (two_m * two_m)

            best_c = ci
            best_gain = insert_gain(ci, w_to.get(ci, 0.0))
            for c, w in w_to.items():
                if c == ci:
                    continue
                g_c = insert_gain(c, w)
                if g_c > best_gain + 1e-12:
                    best_c, best_gain = c, g_c
            comm_deg[best_c] += deg[i]
            if best_c != ci:
                labels[i] = best_c
                moved = True
                improved = True
    return labels, improved


def _aggregate_graph(adj: np.ndarray, labels: np.ndarray) -> np.ndarray:
    comms, idx = np.unique(labels, return_inverse=True)
    z = np.zeros((adj.shape[0], comms.size))
    z[np.arange(adj.shape[0]), idx] = 1.0
    return z.T @ adj @ z


def louvain_cluster(g: Graph, rng: np.random.Generator | None = None) -> Partition:
    """Two-phase Louvain: local moving with shuffled visit order, then
    community aggregation, repeated until modularity stops improving."""
    if rng is None:
        rng = np.random.default_rng()
    _check_edges(g)
    adj = g.adjacency.copy()
    assignment = np.arange(g.n)  # maps original vertex -> current community index
    prev_q = -np.inf
    while True:
        labels = np.arange(adj.shape[0])
        labels, _ = _local_moving(adj, labels, rng)
        _, idx = np.unique(labels, return_inverse=True)
        assignment = idx[assignment]
        adj = _aggregate_graph(adj, labels)
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
