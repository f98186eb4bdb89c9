"""Undirected weighted graphs with dense adjacency, plus derived matrices."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

import numpy as np

from templateclust.errors import InputError, NumericalError

T = TypeVar("T")

# Below this many vertices per wanted eigenpair the Lanczos kernel rarely
# proves its answer, and a failed try adds its time to dense eigh's. One BLAS
# thread, kernel with its checks against eigh in ms, and graphs proved of 3,
# for adjacency ends at n // 4 steps: g6/10 (10 per pair) 0.14/0.20, 0; the
# email-file graphs (16) 0.89/2.07, 0; g6/20 (20) 0.37/0.73, 1; g6/30 (30)
# 0.70/1.70, 3; g6/40 (40) 1.00/3.05, 3. A one-ended request it turns away
# goes to the subset driver: A's top 6, kernel/subset in ms, median of 10
# graphs, g6/20 0.91-1.02/0.86-0.95 (kernel proved 5), g6/30 1.50-1.68/
# 1.82-1.84 (10). The rule holds for every request; one with no top end
# also needs KERNEL_LONG_RUN_VERTICES.
KERNEL_MIN_VERTICES_PER_PAIR = 32
# From this many vertices the kernel may run n // 2 Lanczos steps, below it
# n // 4, and only from here does it try a request with no top end (L's
# bottom; A's under a negative-definite template, where g3/40 and g6/34 proved
# 0 of 6 graphs each). Below, a one-ended such request (L's bottom) goes to
# the subset driver. One BLAS thread, kernel at n // 2 steps/subset in ms,
# median of 10 graphs: c2/40/0.42 2.56-2.69/1.27-1.31, bp/100/0.6 hub
# 4.64-4.66/1.67-1.70, g6/34 2.21-2.22/2.11-2.16, g3/60 1.13-1.20/1.45-1.49.
# tb's eigenvector_start at n // 2 against n // 4 steps read -1% to +14% on
# bp/40/0.6 bipartite, -35% to +12% hub, -20% to +8% g3/40 and c2/40/0.42.
KERNEL_LONG_RUN_VERTICES = 240
# explicit residual bound of a returned pair, relative to ||m||_inf
KERNEL_RESIDUAL_TOL = 1e-12
KERNEL_TEST_EVERY = 8  # Lanczos steps between tests of the Ritz residuals
# From this many vertices per wanted pair a one-ended request the kernel's
# rules turn away goes to LAPACK's subset driver rather than dense eigh. One
# BLAS thread, best of 9 calls, dense eigh/subset in ms for A's top 6 and
# L's bottom 6 of g6 graphs: g6/6 (6 per pair) 0.103/0.118, 0.111/0.154;
# g6/7 (7) 0.133/0.139, 0.142/0.135; g6/8 (8) 0.196/0.178, 0.194/0.160;
# g6/12 (12) 0.401/0.292, 0.400/0.274; g6/32 (32) 3.21/1.41, 3.15/1.37.
SUBSET_MIN_VERTICES_PER_PAIR = 8


def _nothing_above(
    m: np.ndarray, sign: float, y: np.ndarray, theta: np.ndarray, scale: float, tol: float, work: np.ndarray
) -> bool:
    """Whether every eigenvalue of `sign * m` but the t found ones (columns
    of `y`, values `theta`) lies below tau = min(theta) - sqrt(t) tol.

    Moving the found values to -scale <= min eig(sign * m) is a negative
    semidefinite change of rank t, so by Weyl's inequality the (t+1)-th
    largest eigenvalue of `sign * m` is at most the largest of the moved
    matrix, which is below tau when tau I minus it has a Cholesky factor. The
    found values have errors below sqrt(t) tol, so the t largest eigenvalues
    are then the found ones; a missed copy of a repeated one fails the factor
    by sqrt(t) tol, far above its rounding (n eps scale).

    tau I minus the moved matrix is built in the n x n array `work`, which
    Cholesky reads and leaves as it is. Sign -1 adds `m` where sign 1
    subtracts it, so no copy of `sign * m` is made; x + m equals x - (-m)
    bit for bit.
    """
    tau = theta.min() - np.sqrt(theta.size) * tol
    np.matmul(y * (theta + scale), y.T, out=work)
    (np.subtract if sign > 0 else np.add)(work, m, out=work)
    work.flat[:: work.shape[0] + 1] += tau
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return False
    return True


def extremal_pairs(
    m: np.ndarray, bottom: int, top: int, limits: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The `bottom` smallest and `top` largest eigenpairs of the symmetric
    matrix `m` as (values ascending, read-only unit eigenvectors as columns),
    or None when they cannot be proved.

    Lanczos (1950) with full reorthogonalization (classical Gram-Schmidt,
    twice) from a fixed start vector, testing the Ritz residuals every
    KERNEL_TEST_EVERY steps and stopping after at most n // 2 steps (n // 4
    below KERNEL_LONG_RUN_VERTICES vertices). A result is returned only when
    each pair's explicit residual ||m y - theta y|| is at most
    KERNEL_RESIDUAL_TOL ||m||_inf and, at each wanted end, a Cholesky
    factorization proves that no other eigenvalue lies beyond the found ones
    (`_nothing_above`). A repeated eigenvalue whose copy the Krylov space
    missed therefore gives None, never a frame.

    `limits`, ascending like the values, asks for wanted bottom values at or
    above `limits[:bottom]` and top ones at or below `limits[bottom:]`. The
    i-th smallest Ritz value never lies below the i-th smallest eigenvalue,
    nor the i-th largest above the i-th largest (Cauchy interlacing), so the
    kernel gives up at the first test where a wanted Ritz value is past its
    limit by more than the residual bound: the eigenvalue is past it too.

    One n x n work array holds |m| for the scale and then each end's proof
    matrix, so a call holds at most three n x n arrays' worth at once: the
    work array, Cholesky's factor and the Krylov basis of at most n // 2 + 1
    rows. Traced peaks on a g6/40 graph (n = 240) are 2.6 n x n float64
    arrays for the Laplacian's bottom 6 and for the adjacency's top 6.
    """
    n = m.shape[0]
    want = bottom + top
    work = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.abs(m, out=work).sum(axis=1).max())
    steps = n // 2 if n >= KERNEL_LONG_RUN_VERTICES else n // 4
    if not np.isfinite(scale) or want == 0 or steps < want:
        return None
    tol = KERNEL_RESIDUAL_TOL * scale
    pick = np.concatenate([np.arange(bottom), np.arange(-top, 0)])  # the wanted Ritz pairs at any size
    if limits is not None:  # a wanted theta is past its limit when side * theta > past
        side = np.repeat([-1.0, 1.0], [bottom, top])
        past = side * limits + tol
    basis = np.empty((steps + 1, n))  # rows: the Krylov basis, then the next vector
    diagonal, off = np.empty(steps), np.empty(steps)  # the tridiagonal's, off[j] at (j, j + 1) and (j + 1, j)
    # fixed, positive and aperiodic: no rng draw, and no graph's eigenvector
    # is orthogonal to it except by accident
    start = 1.5 + np.sin(np.sqrt(2.0) * np.arange(1, n + 1))
    basis[0] = start / np.linalg.norm(start)
    for j in range(steps):
        q, size = basis[j], j + 1
        w = m @ q
        diagonal[j] = q @ w
        krylov = basis[:size]
        for _ in range(2):
            w -= (krylov @ w) @ krylov
        off[j] = beta = math.sqrt(w @ w)
        if size >= want and (size % KERNEL_TEST_EVERY == 0 or beta <= tol or size == steps):
            tridiagonal = np.zeros((size, size))
            tridiagonal.flat[:: size + 1] = diagonal[:size]
            tridiagonal.flat[1 :: size + 1] = tridiagonal.flat[size :: size + 1] = off[: size - 1]
            theta, s = np.linalg.eigh(tridiagonal)
            if limits is not None and (side * theta[pick] > past).any():
                return None
            if beta * np.abs(s[-1, pick]).max() <= tol:
                break
        if beta <= tol or size == steps:  # an invariant subspace too small, or out of steps
            return None
        np.divide(w, beta, out=basis[size])
    theta = theta[pick]
    y = krylov.T @ s[:, pick]
    if np.linalg.norm(m @ y - y * theta, axis=0).max() > tol:
        return None
    if top and not _nothing_above(m, 1.0, y[:, bottom:], theta[bottom:], scale, tol, work):
        return None
    if bottom and not _nothing_above(m, -1.0, y[:, :bottom], -theta[:bottom], scale, tol, work):
        return None
    for a in (theta, y):
        a.setflags(write=False)
    return theta, y


@functools.cache
def _subset_driver() -> Callable[..., int] | None:
    """LAPACKE's dsyevr, with 64-bit indices, from the OpenBLAS that numpy's
    wheel bundles (`numpy.libs/` beside the package on Linux, `numpy/.dylibs/`
    on macOS), or None when there is no such library or symbol: numpy built on
    MKL, Accelerate or a system LAPACK. numpy has already loaded the library,
    so binding it loads nothing and changes no setting of the process."""
    from ctypes import CDLL, c_char, c_double, c_int, c_int64

    package = Path(np.__file__).parent
    name = "libscipy_openblas64_*"
    for library in [*package.parent.glob(f"numpy.libs/{name}"), *package.glob(f".dylibs/{name}")]:
        try:
            driver = CDLL(str(library)).scipy_LAPACKE_dsyevr64_
        except (OSError, AttributeError):
            continue
        matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("F_CONTIGUOUS", "WRITEABLE"))
        floats = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="WRITEABLE")
        ints = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="WRITEABLE")
        driver.restype = c_int64
        # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
        driver.argtypes = [c_int, c_char, c_char, c_char, c_int64, matrix, c_int64, c_double, c_double, c_int64,
                           c_int64, c_double, ints, floats, matrix, c_int64, ints]
        return driver
    return None


def subset_pairs(m: np.ndarray, bottom: int, top: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The `bottom` smallest or the `top` largest eigenpairs of the symmetric
    matrix `m` of finite entries, the other count 0, as (values ascending,
    read-only unit eigenvectors as columns) from LAPACK's subset driver
    dsyevr, asked for that index range. None when numpy's OpenBLAS has no
    driver to bind (`_subset_driver`), or when the driver reports a failure
    or returns fewer pairs than were asked for.

    dsyevr reduces `m` to tridiagonal form as dense eigh does, but finds only
    the wanted eigenvalues (bisection) and their vectors (inverse iteration)
    and transforms back only those, where eigh finds and transforms all n.
    """
    driver = _subset_driver()
    if driver is None:
        return None
    n, want = m.shape[0], bottom + top
    first = 1 if top == 0 else n - top + 1  # LAPACK counts eigenvalues from 1, ascending
    work = np.array(m, order="F")  # LAPACK overwrites its input, and `m` may be read-only
    found = np.zeros(1, dtype=np.int64)
    values, vectors = np.empty(n), np.empty((n, want), order="F")
    info = driver(102, b"V", b"I", b"U", n, work, n, 0.0, 0.0, first, first + want - 1, 0.0, found, values, vectors,
                  n, np.empty(2 * want, dtype=np.int64))  # 102: column-major
    if info != 0 or found[0] < want:
        return None
    values = values[:want]
    for a in (values, vectors):
        a.setflags(write=False)
    return values, vectors


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
    if m.dtype.kind == "f" and not np.isfinite(m).all():  # booleans and integers are finite
        raise InputError(f"non-finite values (NaN or inf) in {what}")
    if not np.array_equal(m, m.T):
        raise InputError(f"{what} must be exactly symmetric")
    m = m.astype(float)
    m.setflags(write=False)
    return m


def real_number(value: object) -> bool:
    """Whether `value` is one real number: what numpy reads as a 0-d array of
    bools, integers or floats, such as a Python or numpy scalar of one of
    those kinds or a 0-d array. Strings, None, complex numbers, fractions,
    sequences and ragged nested sequences are not."""
    try:
        value = np.asarray(value)
    except ValueError:  # a ragged nested sequence has no shape
        return False
    return value.ndim == 0 and value.dtype.kind in "biuf"


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


def count(value: object, what: str, least: int, most: int | None = None) -> int:
    """`value` as an int from `least` to `most` (None: no upper end), given as a
    Python or numpy integer or a float that is a whole number within int64. A
    bool, fraction, NaN, string, None or sequence raises InputError naming `what`."""
    whole = type(value) is int or real_number(value) and (x := np.asarray(value)).dtype.kind in "iuf" and _integers(x)
    if not whole or value < least or most is not None and value > most:
        span = f">= {least}" if most is None else f"from {least} to {most}"
        raise InputError(f"{what} must be an integer {span}, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph stored as a dense symmetric adjacency matrix.

    Diagonal entries hold self-loop weights. Only `build_graph` makes them;
    loaded and sampled observation graphs are zero-diagonal and {0,1}-valued.
    Values derived from the graph are memoized on it: the dense
    eigendecompositions and the kernel's or subset driver's end eigenpairs
    that serve `end_pairs`,
    CNM's partition, spectral clustering's frame and partition for each k,
    and the neighbour lists of Louvain's first phase.
    """

    adjacency: np.ndarray
    n: int = field(init=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjacency", symmetric_matrix(self.adjacency, "adjacency"))
        object.__setattr__(self, "n", self.adjacency.shape[0])

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """`compute()` on the first request for `key`, the stored value after
        that; nothing is stored when `compute` raises. The graph is immutable,
        so a value derived from it never goes stale. Each caller namespaces
        its keys: `end_pairs` stores dense factors under ("eigh", matrix
        name) and its partial try's split and pairs under ("end pairs",
        matrix name)."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def end_pairs(
        self,
        key: str,
        matrix: Callable[[], np.ndarray],
        bottom: int,
        top: int,
        limits: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The `bottom` smallest and `top` largest eigenpairs of the matrix
        `key` names, as read-only (values ascending, unit eigenvectors as
        columns). `matrix()` builds it, with overflow warnings off, at most once.

        Pairs stored for (key, bottom, top) come first, then the graph's
        dense factors (`np.linalg.eigh`) when it holds them. Otherwise the
        graph makes its one partial try on the matrix. The Lanczos kernel
        `extremal_pairs(m, bottom, top, limits)` runs unless the request
        rules it out, where it rarely proves its answer in time: below
        KERNEL_MIN_VERTICES_PER_PAIR vertices per wanted pair, or with no top
        end below KERNEL_LONG_RUN_VERTICES vertices. A one-ended request it
        rules out goes to LAPACK's subset driver, `subset_pairs(m, bottom,
        top)`, from SUBSET_MIN_VERTICES_PER_PAIR vertices per wanted pair when
        the matrix's entries are finite. Pairs the try gives are stored; in
        every other case the matrix built for it is factored. So a graph makes
        at most one partial try per matrix: a split with a bottom end can cost
        the kernel more than the dense factors that serve every split, as
        when a sigma sweep changes k_-. NumericalError naming `key`, on every
        request, when an entry of the matrix is not finite.
        """
        proved = self._memo.get(("end pairs", key))  # (split, pairs) of the one partial try that gave them
        if proved is not None and proved[0] == (bottom, top):
            return proved[1]
        factors = self._memo.get(("eigh", key))
        if factors is None:
            with np.errstate(over="ignore", invalid="ignore"):
                m = matrix()
            want = bottom + top
            if proved is None:  # the graph's one partial try on this matrix
                pairs = None
                if self.n >= KERNEL_MIN_VERTICES_PER_PAIR * want and (top or self.n >= KERNEL_LONG_RUN_VERTICES):
                    pairs = extremal_pairs(m, bottom, top, limits)
                elif (bottom == 0) != (top == 0) and self.n >= SUBSET_MIN_VERTICES_PER_PAIR * want and (
                    np.isfinite(m).all()
                ):
                    pairs = subset_pairs(m, bottom, top)
                if pairs is not None:
                    self._memo["end pairs", key] = (bottom, top), pairs
                    return pairs
            if not np.isfinite(m).all():
                raise NumericalError(f"the graph's {key} overflows: entries are not finite")
            factors = self._memo["eigh", key] = np.linalg.eigh(m)
        values, vectors = factors
        pick = np.arange(bottom + top)
        pick[bottom:] += self.n - bottom - top
        ends = values[pick], vectors[:, pick]
        for a in ends:
            a.setflags(write=False)
        return ends


def build_graph(edges: list[tuple[int, int, float]], n: int) -> Graph:
    """Assemble a graph from (i, j, w) triples; duplicate pairs accumulate.

    (i, j) and (j, i) denote the same undirected edge. A triple (i, i, w)
    adds a self-loop of weight w. Vertex ids must be integers, by
    `integer_vector`'s rule, n a count, by `count`'s, and each weight a real
    number, by `real_number`'s rule: never a string, None, a complex number,
    a fraction or a sequence.
    """
    n = count(n, "vertex count", 1)
    adj = np.zeros((n, n))
    for i, j, w in edges:
        if np.ndim(i) or np.ndim(j) or not _integers(np.asarray([i, j])):
            raise InputError(f"edge ({i!r}, {j!r}) has a vertex id that is not an integer")
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) out of range for n={n}")
        if not real_number(w):
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
    ordered by label value. The two products can round (c, d) and (d, c)
    differently for weights that are not whole numbers, so the upper
    triangle is kept and mirrored: the result is exactly symmetric.
    """
    if len(labels) != adj.shape[0]:
        raise InputError(f"labels cover {len(labels)} vertices but graph has {adj.shape[0]}")
    comms, idx = np.unique(labels, return_inverse=True)
    z = np.zeros((adj.shape[0], comms.size))
    z[np.arange(adj.shape[0]), idx] = 1.0
    sums = z.T @ adj @ z
    return np.triu(sums) + np.triu(sums, 1).T
