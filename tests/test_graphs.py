import numpy as np
import pytest

from templateclust import Graph, InputError, build_graph, degree_matrix, laplacian

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


def test_asymmetric_adjacency_rejected():
    with pytest.raises(InputError):
        Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_adjacency_rejected(bad):
    # placed symmetrically, so only the finiteness check can reject it
    with pytest.raises(InputError, match="non-finite"):
        Graph(np.array([[0.0, bad], [bad, 0.0]]))


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
