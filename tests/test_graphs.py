import numpy as np
import pytest

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
    laplacian,
    make_c2,
)

from conftest import random_simple_graph


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


def test_whole_number_vertex_ids_and_count_accepted():
    g = build_graph([(0.0, np.int64(1), 1.0), (True, 2, 1.0)], 3.0)
    assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


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
