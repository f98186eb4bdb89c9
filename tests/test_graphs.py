import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from templateclust import (
    CommunitySpec,
    Graph,
    GroundTruth,
    InputError,
    Partition,
    TemplateModel,
    adjusted_rand_index,
    block_sums,
    build_graph,
    degree_matrix,
    kmeans,
    laplacian,
    make_bp,
    make_c2,
    make_g3,
    make_g6,
    pivoted_qr_seeds,
    random_stiefel,
    sample_graph,
    spectral_cluster,
)
from templateclust import graphs
from templateclust.baselines import spectral_embedding
from templateclust.harness import ExperimentConfig
from templateclust.synth import check_sigma
from templateclust.graphs import KERNEL_RESIDUAL_TOL, count, extremal_pairs, subset_pairs

from conftest import random_simple_graph, traced_peak


def test_empty_graph():
    g = build_graph([], 3)
    assert np.array_equal(g.adjacency, np.zeros((3, 3)))


def test_single_edge_symmetry():
    g = build_graph([(0, 1, 1.0)], 2)
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])


def test_duplicate_edges_accumulate():
    # scalar accumulation oracle: two insertions of the same undirected pair
    # sum to total weight 1 + 1 = 2 on both symmetric entries
    g = build_graph([(0, 1, 1.0), (1, 0, 1.0)], 2)
    assert np.array_equal(g.adjacency, [[0, 2], [2, 0]])


def test_self_loop_weight_on_diagonal():
    g = build_graph([(0, 0, 2.5)], 2)
    assert g.adjacency[0, 0] == 2.5


def test_out_of_range_vertex():
    with pytest.raises(InputError):
        build_graph([(0, 3, 1.0)], 3)
    with pytest.raises(InputError):
        build_graph([], 0)


@pytest.mark.parametrize(
    "edges, n, message",
    [
        ([(0.5, 1, 1.0)], 2, r"edge \(0\.5, 1\) has a vertex id that is not an integer"),
        ([(0, "1", 1.0)], 2, r"edge \(0, '1'\) has a vertex id that is not an integer"),
        ([], 2.5, "vertex count must be an integer >= 1, got 2.5"),
        ([], "2", "vertex count must be an integer >= 1, got '2'"),
    ],
    ids=["fractional-id", "string-id", "fractional-count", "string-count"],
)
def test_non_integer_vertex_ids_and_count_rejected(edges, n, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        build_graph(edges, n)


@pytest.mark.parametrize(
    "weight, shown",
    [("x", "'x'"), (None, "None"), (1 + 1j, r"\(1\+1j\)")],
    ids=["string", "none", "complex"],
)
def test_non_real_weight_rejected(weight, shown):
    # a complex weight must not keep only its real part
    with pytest.raises(InputError, match=rf"^edge \(0, 1\) has weight {shown}, which is not a real number$"):
        build_graph([(0, 1, weight)], 2)


@pytest.mark.parametrize("caller", ["build_graph", "check_sigma"])
@pytest.mark.parametrize(
    "value, real",
    [([[1], [1, 2]], False), (np.array(0.5), True), (np.True_, True), (Fraction(1, 2), False)],
    ids=["ragged", "0-d-array", "numpy-bool", "fraction"],
)
def test_one_real_number_rule(caller, value, real):
    """An edge weight and a noise level follow `graphs.real_number`: what
    numpy reads as one bool, integer or float."""
    if caller == "build_graph":
        call, message = lambda: build_graph([(0, 1, value)], 2), r"^edge \(0, 1\) has weight .*, which is not a real number$"
    else:
        call, message = lambda: check_sigma(value), "^sigma must be a real number, got "
    if real:
        call()
    else:
        with pytest.raises(InputError, match=message):
            call()


def test_whole_number_vertex_ids_and_count_accepted():
    g = build_graph([(0.0, np.int64(1), 1.0), (True, 2, 1.0)], 3.0)
    assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


COUNT_FORMS = {"int": int, "int64": np.int64, "int32": np.int32, "float": float, "float64": np.float64}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-1000, 1000),
    st.sampled_from(sorted(COUNT_FORMS)),
    st.integers(-10, 10),
    st.none() | st.integers(0, 20),
)
def test_count_reads_integers_in_range(number, form, least, span):
    # an integer, or a whole-number float, comes back as that int when it
    # lies in range, and raises the one message otherwise
    most = None if span is None else least + span
    value = COUNT_FORMS[form](number)
    if least <= number and (most is None or number <= most):
        got = count(value, "size", least, most)
        assert type(got) is int and got == number
    else:
        rule = f">= {least}" if most is None else f"from {least} to {most}"
        with pytest.raises(InputError, match=f"^size must be an integer {rule}, got {re.escape(repr(value))}$"):
            count(value, "size", least, most)


def test_count_reads_whole_floats_within_int64():
    assert count(2.0**62, "n", 1) == 2**62
    assert count(np.float64(-(2.0**62)), "n", -(2**63)) == -(2**62)
    with pytest.raises(InputError, match="^n must be an integer >= 1, got 9.223372036854776e\\+18$"):
        count(2.0**63, "n", 1)


NOT_COUNTS = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_, np.array(True)]),
    st.floats().filter(lambda x: not x.is_integer()),  # fractions, NaN and inf
    st.floats(min_value=2.0**63) | st.floats(max_value=-(2.0**63)),
    st.fractions(),
    st.text(),
    st.none(),
    st.complex_numbers(),
    st.lists(st.integers(0, 5), max_size=3),
    st.builds(np.array, st.lists(st.integers(0, 5), min_size=1, max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(NOT_COUNTS)
def test_count_rejects_what_is_not_a_count(value):
    with pytest.raises(InputError, match=f"^size must be an integer >= -5, got {re.escape(repr(value))}$"):
        count(value, "size", -5)


def _count_caller_graph():
    return sample_graph(make_g3(3), np.random.default_rng(0))[0]


def _stream():
    return np.random.default_rng(0)


# each library entry point that reads a count, called with one that it
# took, or failed on with a TypeError, before every count went through
# `graphs.count`, and the message it raises now
COUNT_CALLERS = {
    "random_stiefel-n-fraction": (lambda: random_stiefel(5.5, 2, _stream()), "n must be an integer >= 1, got 5.5"),
    "random_stiefel-n-bool": (lambda: random_stiefel(True, 1, _stream()), "n must be an integer >= 1, got True"),
    "random_stiefel-k-bool": (lambda: random_stiefel(5, True, _stream()), "k must be an integer from 1 to 5, got True"),
    "spectral_cluster-fraction": (
        lambda: spectral_cluster(_count_caller_graph(), 2.5, _stream()), "k must be an integer from 1 to 9, got 2.5"
    ),
    "spectral_cluster-bool": (
        lambda: spectral_cluster(_count_caller_graph(), True, _stream()), "k must be an integer from 1 to 9, got True"
    ),
    "spectral_embedding-fraction": (
        lambda: spectral_embedding(_count_caller_graph(), 1.5), "k must be an integer from 1 to 9, got 1.5"
    ),
    "pivoted_qr_seeds-bool": (
        lambda: pivoted_qr_seeds(np.eye(4, 2), True), "k must be an integer from 1 to 4, got True"
    ),
    "kmeans-zero": (lambda: kmeans(np.eye(4, 2), 0), "k must be an integer from 1 to 4, got 0"),
    "build_graph-bool": (lambda: build_graph([], True), "vertex count must be an integer >= 1, got True"),
    "CommunitySpec-bool": (
        lambda: CommunitySpec((True, 2), np.eye(2)), "community size must be an integer >= 1, got True"
    ),
    "make_g3-bool": (lambda: make_g3(True), "community size must be an integer >= 1, got True"),
    "ExperimentConfig-sizes-bool": (
        lambda: ExperimentConfig("synth", "g3", sizes=(True,)), "sizes must be an integer >= 1, got True"
    ),
}


@pytest.mark.parametrize("case", COUNT_CALLERS)
def test_count_callers_name_the_argument(case):
    call, message = COUNT_CALLERS[case]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_count_callers_read_whole_numbers_as_ints():
    # each of these raised a TypeError before
    rows, seeds = pivoted_qr_seeds(np.eye(4, 2), 2.0)
    assert [a.tolist() for a in pivoted_qr_seeds(np.eye(4, 2), 2)] == [rows.tolist(), seeds.tolist()]
    assert random_stiefel(np.int64(4), 2.0, _stream()).shape == (4, 2)
    g = _count_caller_graph()
    assert spectral_cluster(g, 3.0, None) is spectral_cluster(g, np.int64(3), None) is spectral_cluster(g, 3, None)


def test_asymmetric_adjacency_rejected():
    with pytest.raises(InputError):
        Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_adjacency_rejected(bad):
    # placed symmetrically, so only the finiteness check can reject it
    with pytest.raises(InputError, match="non-finite"):
        Graph(np.array([[0.0, bad], [bad, 0.0]]))


# every value that holds a symmetric weight matrix, by the name its errors use
SYMMETRIC_MATRICES = {
    "adjacency": Graph,
    "template weights": TemplateModel,
    "rates": lambda m: CommunitySpec((1, 1), m),
}

ONE_ULP = np.nextafter(0.25, 1.0)


@pytest.mark.parametrize("what", SYMMETRIC_MATRICES)
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.full((2, 3), 0.5), "must be a nonempty square matrix"),
        (np.full(2, 0.5), "must be a nonempty square matrix"),
        (np.zeros((0, 0)), "must be a nonempty square matrix"),
        (np.array([[0.5, 1j], [1j, 0.5]]), "must be a nonempty square matrix of numbers"),
        (np.array([["0.5", "0"], ["0", "0.5"]]), "must be a nonempty square matrix of numbers"),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "non-finite values"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), "non-finite values"),
        (np.array([[0.5, 0.25], [ONE_ULP, 0.5]]), "must be exactly symmetric"),
        ([[0.5, 0.25], [0.25]], "must be a nonempty square matrix of numbers"),
    ],
    ids=["2x3", "1-d", "empty", "complex", "strings", "nan", "inf", "one-ulp", "ragged"],
)
def test_symmetric_matrix_rule_names_the_value(what, bad, message):
    with pytest.raises(InputError, match=message) as info:
        SYMMETRIC_MATRICES[what](bad)
    assert what in str(info.value)


# every value that holds an integer vector, by the name its errors use
INTEGER_VECTORS = {
    "Partition": (Partition, "labels"),
    "GroundTruth": (GroundTruth, "labels"),
    "ARI first": (lambda x: adjusted_rand_index(x, [0, 1, 1]), "labels"),
    "ARI second": (lambda x: adjusted_rand_index([0, 1, 1], x), "labels"),
    "CommunitySpec sizes": (lambda x: CommunitySpec(x, np.eye(len(x))), "community sizes"),
}


@pytest.mark.parametrize("value", INTEGER_VECTORS)
@pytest.mark.parametrize(
    "bad",
    [
        [1.5, 1.0, 2.0],
        [np.nan, 1.0, 2.0],
        [np.inf, 1.0, 2.0],
        [1e30, 1.0, 2.0],
        np.array(["1", "1", "2"]),
        [None, 1, 2],
        [[1, 1, 2]],
        [],
        [[0, 1], [1]],
    ],
    ids=["fraction", "nan", "inf", "beyond-int64", "strings", "objects", "2-d", "empty", "ragged"],
)
def test_integer_vector_rule_names_the_value(value, bad):
    make, what = INTEGER_VECTORS[value]
    with pytest.raises(InputError, match=f"^{what} must be a nonempty 1-d integer array$"):
        make(bad)


def test_whole_number_floats_read_as_ints():
    floats, ints = [2.0, 0.0, 0.0, 1.0], [2, 0, 0, 1]
    assert np.array_equal(Partition(floats).labels, Partition(ints).labels)
    a, b = GroundTruth(floats), GroundTruth(ints)
    assert (a.k, a.labels.tolist(), a.sizes.tolist()) == (b.k, b.labels.tolist(), b.sizes.tolist())
    assert a.labels.dtype == b.labels.dtype
    assert adjusted_rand_index(floats, [1, 0, 0, 2]) == adjusted_rand_index(ints, [1, 0, 0, 2]) == 1.0
    assert CommunitySpec((2.0, 3.0), np.eye(2)).sizes == (2, 3)
    assert Partition(np.array([True, False, True])).labels.tolist() == [0, 1, 0]


def test_fractional_labels_raise_instead_of_truncating():
    # truncation would read the four singletons as [0, 0, 1, 1] and score 0.0
    with pytest.raises(InputError, match="labels must be a nonempty 1-d integer array"):
        adjusted_rand_index([0.2, 0.7, 1.5, 1.9], [0, 1, 2, 3])


def test_fractional_community_size_raises():
    with pytest.raises(InputError, match="community sizes must be a nonempty 1-d integer array"):
        make_c2(2.5, 0.3)


def test_degree_matrix_examples():
    assert np.array_equal(degree_matrix(build_graph([], 3)), [0, 0, 0])
    assert np.array_equal(degree_matrix(build_graph([(0, 1, 1.0)], 2)), [1, 1])
    path = build_graph([(0, 1, 1.0), (1, 2, 1.0)], 3)
    assert np.array_equal(degree_matrix(path), [1, 2, 1])


def test_laplacian_examples():
    assert np.array_equal(laplacian(build_graph([], 2)), np.zeros((2, 2)))
    assert np.array_equal(laplacian(build_graph([(0, 1, 1.0)], 2)), [[1, -1], [-1, 1]])
    path = build_graph([(0, 1, 1.0), (1, 2, 1.0)], 3)
    assert np.array_equal(laplacian(path), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_constructed_graphs_exactly_symmetric(rng):
    for _ in range(20):
        g = random_simple_graph(int(rng.integers(2, 15)), rng)
        assert np.max(np.abs(g.adjacency - g.adjacency.T)) == 0.0


def test_laplacian_psd_and_null_vector(rng):
    for _ in range(10):
        g = random_simple_graph(int(rng.integers(2, 15)), rng)
        lap = laplacian(g)
        assert np.linalg.eigvalsh(lap).min() >= -1e-9
        assert np.max(np.abs(lap @ np.ones(g.n))) <= 1e-12


def test_degree_equals_row_sums(rng):
    g = random_simple_graph(12, rng)
    assert np.max(np.abs(degree_matrix(g) - g.adjacency.sum(axis=1))) <= 1e-12


def test_block_sums_groups_ordered_by_label_value():
    g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (2, 2, 3.0)], 3)
    # group 0 is label 2 = {2}, group 1 is label 5 = {0, 1}; the intra-group
    # edge (0, 1) counts twice, the self-loop once
    assert np.array_equal(block_sums(g.adjacency, np.array([5, 5, 2])), [[3, 2], [2, 2]])


def test_block_sums_label_count_mismatch():
    with pytest.raises(InputError, match="labels cover 2 vertices but graph has 3"):
        block_sums(np.zeros((3, 3)), np.array([0, 1]))


def kernel_input(kind: str, n: int, blocks: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """A `kind` adjacency on about n vertices: "random" plants `blocks`
    groups with `density` inside and a tenth of it between; "doubled" is two
    disjoint copies of such a graph, so every eigenvalue is repeated."""
    if kind == "complete":
        return np.ones((n, n)) - np.eye(n)
    if kind == "empty":
        return np.zeros((n, n))
    size = n // 2 if kind == "doubled" else n
    groups = np.arange(size) % blocks
    prob = np.where(groups[:, None] == groups[None, :], density, density / 10)
    upper = np.triu(rng.random((size, size)) < prob, k=1).astype(float)
    a = upper + upper.T
    return np.kron(np.eye(2), a) if kind == "doubled" else a


def assert_extremal_pairs(m: np.ndarray, bottom: int, top: int, pairs: tuple[np.ndarray, np.ndarray]) -> None:
    """The pairs are the `bottom` smallest and `top` largest of `eigvalsh`
    within 1e-10 ||m||_inf, orthonormal, read-only and within the kernel's
    residual tolerance."""
    values, vectors = pairs
    n, want = m.shape[0], bottom + top
    scale = np.abs(m).sum(axis=1).max()
    mu = np.linalg.eigvalsh(m)
    assert values.shape == (want,) and vectors.shape == (n, want)
    assert np.all(np.abs(values - np.r_[mu[:bottom], mu[n - top :]]) <= 1e-10 * scale)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(want))) <= 1e-10
    assert np.linalg.norm(m @ vectors - vectors * values, axis=0).max() <= KERNEL_RESIDUAL_TOL * scale
    assert not values.flags.writeable and not vectors.flags.writeable


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["random", "doubled", "complete", "empty"]),
    n=st.integers(8, 240),
    blocks=st.integers(1, 6),
    density=st.floats(0.05, 0.9),
    bottom=st.integers(0, 3),
    top=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_extremal_pairs_are_the_ends_whenever_they_return(kind, n, blocks, density, bottom, top, seed):
    """The kernel may give up (None), but what it returns is right, also
    where every eigenvalue is repeated (doubled, complete) or zero (empty).
    A planted graph's largest eigenvalues stand apart from the bulk only up
    to one per block, so `top` is capped there to let the kernel return."""
    if kind in ("random", "doubled"):
        top = min(top, blocks * (2 if kind == "doubled" else 1))
    assume(bottom + top > 0)
    m = kernel_input(kind, n, blocks, density, np.random.default_rng(seed))
    pairs = extremal_pairs(m, bottom, top)
    if pairs is not None:
        assert_extremal_pairs(m, bottom, top, pairs)


@pytest.mark.skipif(graphs._subset_driver() is None, reason="numpy's LAPACK exports no dsyevr to bind")
@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "doubled", "complete", "empty"]),
    n=st.integers(8, 240),
    blocks=st.integers(1, 6),
    density=st.floats(0.05, 0.9),
    count=st.integers(1, 8),
    top_end=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_subset_pairs_are_the_ends(kind, n, blocks, density, count, top_end, seed):
    """LAPACK's subset driver always returns one end's pairs, also where
    every eigenvalue is repeated, and leaves its read-only input as it was;
    where the end stands apart, its projector is dense eigh's."""
    assume(count < n - n % 2)  # fewer pairs than vertices, a doubled graph's n being even
    m = kernel_input(kind, n, blocks, density, np.random.default_rng(seed))
    m.setflags(write=False)
    before = m.copy()
    bottom, top = (0, count) if top_end else (count, 0)
    pairs = subset_pairs(m, bottom, top)
    assert np.array_equal(m, before)
    assert_extremal_pairs(m, bottom, top, pairs)
    mu, v = np.linalg.eigh(m)
    inner = m.shape[0] - count if top_end else count  # the first index past the end, in mu's order
    if abs(mu[inner] - mu[inner - 1]) > 1e-6 * max(1.0, np.abs(mu).max()):
        v = v[:, inner:] if top_end else v[:, :inner]
        assert np.linalg.norm(pairs[1] @ pairs[1].T - v @ v.T) <= 1e-8


@pytest.mark.parametrize("info, found", [(1, 3), (-6, 0), (0, 2)])
def test_subset_pairs_give_up_on_a_driver_failure(monkeypatch, info, found):
    """A nonzero `info`, or fewer pairs than asked for, gives None; so does
    numpy without a driver to bind."""

    def driver(*args):
        args[12][0] = found  # m, the count of pairs found
        return info

    m = np.eye(12)
    monkeypatch.setattr(graphs, "_subset_driver", lambda: driver)
    assert subset_pairs(m, 0, 3) is None
    monkeypatch.setattr(graphs, "_subset_driver", lambda: None)
    assert subset_pairs(m, 0, 3) is None


def test_no_library_to_bind_gives_no_driver(tmp_path, monkeypatch):
    """numpy built on MKL, Accelerate or a system LAPACK has no OpenBLAS
    beside it: a file of that name that does not load is passed over, and
    there is no driver."""
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_fake.so").write_bytes(b"not a shared library")
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert graphs._subset_driver.__wrapped__() is None


PLANTED = {
    "g6-40": make_g6(40),
    # 12 email-like communities of 32: more wanted pairs than steps between tests
    "email-12x32": CommunitySpec((32,) * 12, np.where(np.eye(12) > 0, 0.3, 0.005)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PLANTED))
def test_extremal_pairs_return_on_planted_graphs(name, seed):
    """At 32 or more vertices per wanted pair the kernel proves the planted
    graph's k largest pairs, and spans the eigenvectors of dense eigh's."""
    spec = PLANTED[name]
    k = len(spec.sizes)
    g, _ = sample_graph(spec, np.random.default_rng(seed))
    pairs = extremal_pairs(g.adjacency, 0, k)
    assert pairs is not None
    assert_extremal_pairs(g.adjacency, 0, k, pairs)
    v = np.linalg.eigh(g.adjacency)[1][:, -k:]
    assert np.linalg.norm(pairs[1] @ pairs[1].T - v @ v.T) <= 1e-10


def test_extremal_pairs_never_return_one_copy_of_a_repeated_end():
    """Two disjoint copies of a g6/40 graph: its largest eigenvalue is
    repeated, and a Krylov space from one start vector holds only one copy.
    Asked for the largest pair, the kernel must give up; asked for two, it
    gives up or returns both copies."""
    g, _ = sample_graph(make_g6(40), np.random.default_rng(0))
    m = np.kron(np.eye(2), g.adjacency)
    assert extremal_pairs(m, 0, 1) is None
    pairs = extremal_pairs(m, 0, 2)
    if pairs is not None:
        assert_extremal_pairs(m, 0, 2, pairs)
        v = np.linalg.eigh(m)[1][:, -2:]
        assert np.linalg.norm(pairs[1] @ pairs[1].T - v @ v.T) <= 1e-10


def laplacian_input(kind: str, n: int, blocks: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """The Laplacian of a planted graph on about n vertices, as in
    `kernel_input`: "weighted" draws each edge's weight from [0.1, 10],
    "disconnected" takes two disjoint copies, and "isolated" cuts a tenth of
    the vertices off. Zero is a repeated eigenvalue in the last two."""
    a = kernel_input("doubled" if kind == "disconnected" else "random", n, blocks, density, rng)
    if kind == "weighted":
        upper = np.triu(a * rng.uniform(0.1, 10.0, a.shape), k=1)
        a = upper + upper.T
    if kind == "isolated":
        cut = rng.permutation(n)[: n // 10 + 1]
        a[cut], a[:, cut] = 0.0, 0.0
    return np.diag(a.sum(axis=1)) - a


def assert_bottom_pairs(m: np.ndarray, k: int, pairs: tuple[np.ndarray, np.ndarray]) -> None:
    """`assert_extremal_pairs` for the k smallest pairs, whose vectors also
    span dense eigh's bottom-k space wherever the k-th and (k+1)-th
    eigenvalues stand 1e-4 ||m||_inf apart: by Davis and Kahan the residual
    bound then keeps the projectors within sqrt(2k) 1e-8."""
    assert_extremal_pairs(m, k, 0, pairs)
    mu, v = np.linalg.eigh(m)
    if mu[k] - mu[k - 1] > 1e-4 * np.abs(m).sum(axis=1).max():
        vectors = pairs[1]
        assert np.linalg.norm(vectors @ vectors.T - v[:, :k] @ v[:, :k].T) <= 1e-7


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["planted", "weighted", "disconnected", "isolated"]),
    n=st.integers(32, 300),
    blocks=st.integers(1, 6),
    density=st.floats(0.05, 0.9),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_laplacian_bottom_pairs_are_right_whenever_they_return(kind, n, blocks, density, k, seed):
    """Spectral's request, with the kernel's vertex floor off so that it may
    run n // 2 steps at any size. Whatever it returns are the k smallest
    pairs, never one copy of a repeated zero, and they span dense eigh's
    bottom-k space where that space is well separated."""
    m = laplacian_input(kind, n, blocks, density, np.random.default_rng(seed))
    with mock.patch.object(graphs, "KERNEL_LONG_RUN_VERTICES", 0):
        pairs = extremal_pairs(m, k, 0)
    if pairs is not None:
        assert_bottom_pairs(m, k, pairs)


def test_laplacian_pairs_fail_the_property_without_the_completeness_check(monkeypatch):
    """Two disjoint copies of a g6/40 graph: zero is a double eigenvalue and
    the Krylov space holds one copy. A kernel whose Cholesky check always
    passes returns that copy with the next eigenvalue, which the property
    rejects; the kernel itself gives up."""
    g, _ = sample_graph(make_g6(40), np.random.default_rng(0))
    m = np.kron(np.eye(2), laplacian(g))
    assert extremal_pairs(m, 2, 0) is None
    monkeypatch.setattr(graphs, "_nothing_above", lambda *args: True)
    pairs = extremal_pairs(m, 2, 0)
    assert pairs is not None
    with pytest.raises(AssertionError):
        assert_bottom_pairs(m, 2, pairs)


def test_extremal_pairs_run_up_to_n_over_2_steps_from_the_vertex_floor(monkeypatch):
    """A bp/120/0.4 hub Laplacian (n = 240) needs more than n // 4 Lanczos
    steps for its two bottom pairs, which the kernel proves within n // 2."""
    g, _ = sample_graph(make_bp(120, 0.4, "hub"), np.random.default_rng(0))
    m = laplacian(g)
    tests = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: tests.append(a.shape[0]) or eigh(a))
    pairs = extremal_pairs(m, 2, 0)
    assert m.shape[0] // 4 < tests[-1] <= m.shape[0] // 2
    assert_bottom_pairs(m, 2, pairs)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40),
    t=st.integers(1, 6),
    extra=st.integers(0, 3),
    sign=st.sampled_from([1.0, -1.0]),
    found=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_proof_matrix_is_built_in_the_work_array(n, t, extra, sign, found, seed):
    """`_nothing_above` leaves in `work` exactly the matrix it used to build
    from a negated copy of `m` for the bottom end: (y (theta + scale)) y^T -
    sign m, plus tau on the diagonal, bit for bit, and its verdict is whether
    that matrix has a Cholesky factor (which does not write its input). `y`
    is a column slice of a wider array, as the kernel passes it; with `found`
    it holds the t largest eigenpairs of sign m, otherwise random orthonormal
    columns and values."""
    t = min(t, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    m = x + x.T
    if found:
        values, vectors = np.linalg.eigh(sign * m)
        theta, columns = values[n - t :], vectors[:, n - t :]
    else:
        theta, columns = rng.standard_normal(t), np.linalg.qr(rng.standard_normal((n, t)))[0]
    y = np.hstack([np.ones((n, extra)), columns])[:, extra:]
    scale = float(np.abs(m).sum(axis=1).max())
    tol = KERNEL_RESIDUAL_TOL * scale
    work = np.full((n, n), np.nan)
    proved = graphs._nothing_above(m, sign, y, theta, scale, tol, work)
    moved = (y * (theta + scale)) @ y.T - (sign * m)
    moved[np.diag_indices_from(moved)] += theta.min() - np.sqrt(t) * tol
    assert np.array_equal(work, moved)
    try:
        np.linalg.cholesky(moved)
    except np.linalg.LinAlgError:
        assert not proved
    else:
        assert proved


@pytest.mark.parametrize(
    "matrix, bottom, top, bound",
    [("laplacian", 6, 0, 2.75), ("adjacency", 0, 6, 2.6)],
)
def test_extremal_pairs_traced_peak(matrix, bottom, top, bound):
    """A proved g6/40 call (n = 240, n // 2 steps) holds at most `bound` n x n
    float64 arrays at once: the Krylov basis (about half of one), the work
    array of both ends' proofs and Cholesky's factor."""
    g, _ = sample_graph(make_g6(40), np.random.default_rng(0))
    m = laplacian(g) if matrix == "laplacian" else g.adjacency
    pairs, peak = traced_peak(lambda: extremal_pairs(m, bottom, top))
    assert pairs is not None
    assert peak <= bound * m.nbytes


@pytest.mark.parametrize("bottom, top", [(0, 0), (0, 3), (2, 1)])
def test_extremal_pairs_need_n_over_4_steps_per_pair(bottom, top):
    """No pair wanted, or more than n // 4 Lanczos steps could find, on a
    graph below KERNEL_LONG_RUN_VERTICES."""
    g, _ = sample_graph(make_c2(2, 0.6), np.random.default_rng(0))
    assert extremal_pairs(g.adjacency, bottom, top) is None


END_GRAPHS = {
    "c2-10-0.60": make_c2(10, 0.6),
    "g6-10": make_g6(10),
    "bp-30-0.6-hub": make_bp(30, 0.6, "hub"),
    "g6-40": make_g6(40),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(END_GRAPHS)),
    key=st.sampled_from(["adjacency", "laplacian"]),
    bottom=st.integers(0, 3),
    top=st.integers(0, 6),
    route=st.sampled_from(["kernel", "subset", "dense"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_end_pairs_are_the_ends_of_dense_eigh(name, key, bottom, top, route, seed):
    """With the kernel's size rules at 0 the graph tries the Lanczos kernel;
    with them past n and the subset rule at 0, a one-ended request goes to
    LAPACK's subset driver; with every rule past n, neither runs. On every
    route the values lie within the kernel's tolerance of eigvalsh's ends
    (plus eigvalsh's rounding), and each end's projector is dense eigh's
    where that end stands apart from the rest of the spectrum. On the dense
    route the pairs are slices of dense `np.linalg.eigh`, bit for bit. The
    pairs are read-only either way. Once the graph has made its partial try
    or holds its dense factors, no split tries the kernel or the driver."""
    assume(bottom + top > 0)
    g, _ = sample_graph(END_GRAPHS[name], np.random.default_rng(seed))
    matrix = (lambda: g.adjacency) if key == "adjacency" else (lambda: laplacian(g))
    m, n, want = matrix(), g.n, bottom + top
    runs = {"kernel": [], "subset": []}
    kernel_fn, subset_fn = graphs.extremal_pairs, graphs.subset_pairs

    def end_pairs(kernel_rule, subset_rule, low, high):
        """`g.end_pairs` with the kernel's size rules at `kernel_rule` and
        the subset rule at `subset_rule`, counting kernel and driver runs."""
        with mock.patch.multiple(
            graphs,
            KERNEL_MIN_VERTICES_PER_PAIR=kernel_rule,
            KERNEL_LONG_RUN_VERTICES=kernel_rule,
            SUBSET_MIN_VERTICES_PER_PAIR=subset_rule,
            extremal_pairs=lambda *args: runs["kernel"].append(1) or kernel_fn(*args),
            subset_pairs=lambda *args: runs["subset"].append(1) or subset_fn(*args),
        ):
            return g.end_pairs(key, matrix, low, high)

    def dense_ends(low, high):
        mu, v = np.linalg.eigh(m)
        return np.r_[mu[:low], mu[n - high :]], np.hstack([v[:, :low], v[:, n - high :]])

    rules = {"kernel": (0, n + 1), "subset": (n + 1, 0), "dense": (n + 1, n + 1)}[route]
    values, vectors = end_pairs(*rules, bottom, top)
    expected = {"kernel": [1] * (route == "kernel"), "subset": [1] * (route == "subset" and 0 in (bottom, top))}
    assert runs == expected
    if route == "dense":
        assert all(np.array_equal(a, b) for a, b in zip((values, vectors), dense_ends(bottom, top)))
    assert values.shape == (want,) and vectors.shape == (n, want) and np.all(np.diff(values) >= 0)
    assert not values.flags.writeable and not vectors.flags.writeable
    scale = np.abs(m).sum(axis=1).max()
    mu = np.linalg.eigvalsh(m)
    assert np.all(np.abs(values - np.r_[mu[:bottom], mu[n - top :]]) <= (KERNEL_RESIDUAL_TOL + 1e-14 * n) * scale)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(want))) <= 1e-10
    gap = 1e-4 * scale
    v = np.linalg.eigh(m)[1]
    for found, dense, apart in (
        (vectors[:, :bottom], v[:, :bottom], bottom and mu[bottom] - mu[bottom - 1] > gap),
        (vectors[:, bottom:], v[:, n - top :], top and mu[n - top] - mu[n - top - 1] > gap),
    ):
        if apart:
            assert np.linalg.norm(found @ found.T - dense @ dense.T) <= 1e-7
    for split in [(bottom + 1, top), (bottom, top + 1)]:
        assert all(np.array_equal(a, b) for a, b in zip(end_pairs(0, 0, *split), dense_ends(*split)))
    assert runs == expected
