"""Baseline community detection: spectral, greedy modularity (CNM), Louvain."""

from __future__ import annotations

import numpy as np

from templateclust.errors import InputError, NumericalError
from templateclust.graphs import Graph, block_sums, count, degree_matrix, laplacian
from templateclust.metrics import Partition
from templateclust.rounding import kmeans
from templateclust.stiefel import StiefelPoint


def spectral_embedding(g: Graph, k: int) -> StiefelPoint:
    """Eigenvectors of the k smallest Laplacian eigenvalues, as columns: the
    graph's k bottom end pairs of L (`Graph.end_pairs`), which build L at
    most once. The validated frame is kept in the graph's memo for each k;
    a call that raises stores nothing and raises again."""
    k = count(k, "k", 1, g.n)
    return g.memo(("spectral frame", k), lambda: StiefelPoint(g.end_pairs("laplacian", lambda: laplacian(g), k, 0)[1]))


def spectral_cluster(g: Graph, k: int, rng: np.random.Generator | None) -> Partition:
    """Unnormalized spectral clustering: the rows of the k bottom eigenvectors
    of L = D - A, rounded as `tb` rounds its frame, by `rounding.kmeans`:
    pivoted-QR seeds and one Lloyd run on the unit rows.

    Nothing is drawn, so the partition is computed on the first call for a
    `Graph` and k, and read from its memo after that, as `cnm_cluster`'s is;
    a call that raises stores nothing and raises again. `rng` is unused, and
    may be None; the acceptance tests pass one."""
    k = count(k, "k", 1, g.n)
    return g.memo(("spectral", k), lambda: Partition(kmeans(spectral_embedding(g, k).matrix, k)))


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
    smaller id. CNM draws no randomness, so the partition is computed on the
    first call for a `Graph` and read from its memo after that; a graph that
    raises is not memoized and raises again.

    Raises NumericalError when (2m)^2 overflows or underflows, so that the
    gains' degree term cannot be computed.
    """
    return g.memo("cnm", lambda: _cnm_merges(g))


@np.errstate(over="ignore")  # 2 d_a d_b overflows only at -inf cross-weights: live degrees sum to 2m
def _cnm_merges(g: Graph) -> Partition:
    """CNM's merge loop. Its one n x n matrix holds the communities'
    cross-weights, -inf on the diagonal and in absorbed communities' columns;
    a community's row of gains is computed from it when read and kept until
    the next merge. An upper bound on each row's largest gain, raised when a
    gain grows and tightened when the row is read, finds the best pair in a
    few rows and gives the same merges in the same order."""
    two_m = _gain_scale(g)
    half_m, two_m_sq = two_m / 2, two_m * two_m  # 2m/2 is exact: (2m)^2 > 0 keeps 2m normal
    deg = degree_matrix(g)
    cross = g.adjacency.copy()  # cross-weights between communities
    np.fill_diagonal(cross, -np.inf)  # no community pairs with itself; self-loops count only in deg
    # gain(a, b) = 2 w_ab/2m - 2 d_a d_b/(2m)^2, where w_ab/(2m/2) has the bits
    # of 2 w_ab/2m. A pair with no edge has a gain <= 0 and only gains above
    # 1e-15 are merged; by symmetry the row-major first maximum (a, b) has
    # a < b and is the lexicographically smallest best pair.
    blocks = [slice(lo, lo + 64) for lo in range(0, g.n, 64)]  # row maxima 64 rows at a time
    best = np.concatenate([(cross[r] / half_m - (2.0 * deg[r])[:, None] * deg / two_m_sq).max(axis=1) for r in blocks])
    row, degree_term = np.empty(g.n), np.empty(g.n)

    def read(a: int) -> int:  # community a's row of gains into `row`, in the same form
        np.divide(cross[a], half_m, out=row)
        np.multiply(deg, 2.0 * deg[a], out=degree_term)
        np.divide(degree_term, two_m_sq, out=degree_term)
        np.subtract(row, degree_term, out=row)
        return a

    held = -1  # the community whose gains `row` holds
    merges = []
    while True:
        a = int(best.argmax())  # the method skips np.argmax's dispatch, which costs more than the scan
        if a != held:
            held = read(a)
        b = int(row.argmax())
        top = row[b]
        if top < best[a]:  # a stale bound: tighten it and look again
            best[a] = top
            continue
        # top is the largest gain; a is the first row reaching it
        if not top > 1e-15:  # merge only strictly positive gains
            break
        # merge b into a; row b is never read again, as best[b] stays -inf
        merges.append((a, b))
        deg[a] += deg[b]
        cross[a] += cross[b]
        cross[:, a] = cross[a]
        cross[:, b] = -np.inf
        held = read(a)  # every other row changed only at a and b, to row's gain and -inf
        np.maximum(best, row, out=best)
        best[a] = row[row.argmax()]  # the max, without row.max()'s Python-level dispatch
        best[b] = -np.inf
    # in reverse, each absorbed id takes its absorber's final community
    root = list(range(g.n))
    for a, b in reversed(merges):
        root[b] = root[a]
    return Partition(np.array(root))


def _neighbour_lists(adj: np.ndarray) -> tuple[float, list[float], list[int], list[int], list[float]]:
    """2m, the degrees, and the off-diagonal nonzeros listed row by row in
    ascending column order (CSR offsets, columns and weights), as plain lists."""
    n = adj.shape[0]
    flat = np.flatnonzero(adj)  # the entries of np.nonzero(adj), in its row-major order
    flat = flat[flat % (n + 1) != 0]  # self-loops never pull a vertex anywhere
    rows, cols = np.divmod(flat, n)
    indptr = np.searchsorted(rows, np.arange(n + 1)).tolist()
    return float(adj.sum()), adj.sum(axis=1).tolist(), indptr, cols.tolist(), adj.ravel()[flat].tolist()


def _local_moving(lists: tuple, rng: np.random.Generator) -> np.ndarray:
    """One Louvain phase: starting with every vertex in its own community,
    move vertices to neighboring communities while any move improves
    modularity. Returns the vertices' community labels.

    The phase's graph comes as `_neighbour_lists` gives it, and is only read:
    a visit reads only its true neighbours, and the scan runs over plain
    Python lists. A vertex's weights to its neighbours' communities depend
    only on its neighbours' labels, so a visit reuses the ones its last visit
    built until a neighbour moves. Every visit still scores its candidates, so
    the moves, the rng draws and the labels are those of the dense-row scan.
    """
    two_m, deg, indptr, cols, weights = lists
    n = len(deg)
    comm_deg = deg.copy()  # every community a singleton
    lab = list(range(n))
    two_m_sq = two_m * two_m
    cached: list[dict[int, float] | None] = [None] * n  # w_to of each vertex's last visit
    moved = True
    while moved:
        moved = False
        for i in rng.permutation(n).tolist():
            ci = lab[i]
            lo, hi = indptr[i], indptr[i + 1]
            w_to = cached[i]
            if w_to is None:
                # weight from i to each candidate community
                w_to = {}
                for j, w in zip(cols[lo:hi], weights[lo:hi]):
                    c = lab[j]
                    w_to[c] = w_to.get(c, 0.0) + w
                cached[i] = w_to
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
                for j in cols[lo:hi]:  # i's neighbours' weights now hold a stale label
                    cached[j] = None
    return np.array(lab)


def louvain_cluster(g: Graph, rng: np.random.Generator) -> Partition:
    """Two-phase Louvain: local moving with shuffled visit order, then
    community aggregation, repeated until modularity stops improving or a
    phase after the first moves no vertex, whose aggregate would be its input.
    The graph memoizes the first phase's neighbour lists, which use no rng.

    Raises NumericalError when (2m)^2 overflows or underflows, as
    `cnm_cluster` does.
    """
    _gain_scale(g)
    lists = g.memo("neighbour lists", lambda: _neighbour_lists(g.adjacency))
    adj = g.adjacency  # read-only: block_sums returns a new matrix
    assignment = np.arange(g.n)  # maps original vertex -> current community index
    prev_q = -np.inf
    while True:
        labels = _local_moving(lists, rng)
        communities, idx = np.unique(labels, return_inverse=True)
        if communities.size == labels.size and prev_q > -np.inf:  # a later phase moved nothing
            break
        assignment = idx[assignment]
        adj = block_sums(adj, labels)
        q = _modularity_from_adj(adj)
        if q <= prev_q + 1e-9:
            break
        prev_q = q
        lists = _neighbour_lists(adj)
    return Partition(assignment)


def _modularity_from_adj(agg: np.ndarray) -> float:
    """Modularity of the identity partition of an aggregated multigraph."""
    two_m = agg.sum()
    deg = agg.sum(axis=1)
    return float(np.trace(agg) / two_m - np.sum((deg / two_m) ** 2))
