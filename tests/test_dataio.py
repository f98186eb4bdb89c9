import numpy as np
import pytest

from templateclust import (
    GroundTruth,
    InputError,
    build_graph,
    load_edge_list,
    load_labels,
    model_from_ground_truth,
)
from templateclust.dataio import write_edge_list

from conftest import random_simple_graph, two_triangles


class TestLoadEdgeList:
    def test_directed_pair_collapses(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("0 1\n1 0\n")
        g, id_map = load_edge_list(f)
        assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])
        assert id_map == {0: 0, 1: 1}

    def test_self_loop_dropped(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("0 0\n0 1\n")
        g, _ = load_edge_list(f)
        assert g.adjacency.sum() == 2  # one undirected edge

    def test_comments_and_remapping(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("# header\n10 30\n30 20\n")
        g, id_map = load_edge_list(f)
        assert id_map == {10: 0, 20: 1, 30: 2}
        assert g.n == 3
        assert g.total_edge_weight() == 2

    def test_line_order_irrelevant(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1\n1 2\n2 3\n")
        b.write_text("2 3\n0 1\n1 2\n")
        ga, _ = load_edge_list(a)
        gb, _ = load_edge_list(b)
        assert np.array_equal(ga.adjacency, gb.adjacency)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("0 1\nbad line here and more\n")
        with pytest.raises(InputError, match="2"):
            load_edge_list(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("# nothing\n")
        with pytest.raises(InputError):
            load_edge_list(f)

    @pytest.mark.parametrize("weight", ["-1", "0", "nan", "inf", "-inf", "1e999"])
    def test_bad_weight_rejected(self, tmp_path, weight):
        f = tmp_path / "e.txt"
        f.write_text(f"0 1 2.5\n# comment\n1 2 {weight}\n")
        with pytest.raises(InputError, match=f"e.txt:3: edge weight must be positive and finite, got {weight}$"):
            load_edge_list(f)

    def test_positive_weights_collapse_to_unit_edges(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text("0 1 2.5\n1 2 1e-3\n2 0 1\n1 0 7\n")
        g, _ = load_edge_list(f)
        assert np.array_equal(g.adjacency, np.ones((3, 3)) - np.eye(3))


class TestLoadLabels:
    def test_basic(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n1 1\n")
        gt = load_labels(f, 2)
        assert np.array_equal(gt.labels, [0, 1])

    def test_community_ids_remapped(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 7\n1 3\n2 7\n")
        gt = load_labels(f, 3)
        assert gt.k == 2
        assert gt.labels[0] == gt.labels[2] != gt.labels[1]

    def test_missing_vertex(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n2 1\n")
        with pytest.raises(InputError, match="missing"):
            load_labels(f, 3)

    def test_vertex_absent_from_edge_list(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("10 0\n# comment\n99 1\n30 1\n")
        with pytest.raises(InputError, match=r"l\.txt:3: vertex 99 "):
            load_labels(f, 2, id_map={10: 0, 30: 1})

    @pytest.mark.parametrize(
        "text, line, vertex",
        [("0 0\n1 1\n7 1\n", 3, 7), ("0 0\n1 2\n7 1\n", 3, 7), ("0 0\n-1 1\n1 1\n", 2, -1)],
    )
    def test_vertex_out_of_range(self, tmp_path, text, line, vertex):
        f = tmp_path / "l.txt"
        f.write_text(text)
        with pytest.raises(InputError, match=rf"l\.txt:{line}: vertex {vertex} "):
            load_labels(f, 2)

    def test_missing_vertex_named_as_in_file(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("10 20\n20 30\n30 10\n")
        labels = tmp_path / "l.txt"
        labels.write_text("10 0\n30 1\n")
        graph, id_map = load_edge_list(edges)
        with pytest.raises(InputError, match=r"missing labels for vertices \[20\]"):
            load_labels(labels, graph.n, id_map)

    def test_id_map_translation(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("10 0\n30 1\n")
        gt = load_labels(f, 2, id_map={10: 0, 30: 1})
        assert np.array_equal(gt.labels, [0, 1])

    def test_vertex_labelled_twice(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n1 0\n2 1\n1 1\n")
        with pytest.raises(InputError, match=r"vertex 1 is labelled 0 at \S*l\.txt:2 and 1 at \S*l\.txt:4"):
            load_labels(f, 3)

    def test_exact_repeat_accepted(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n1 1\n0 0\n")
        assert np.array_equal(load_labels(f, 2).labels, [0, 1])

    def test_empty_once_comments_stripped(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("# vertex community\n\n# none\n")
        with pytest.raises(InputError, match=r"l\.txt: no labels found"):
            load_labels(f, 2)


class TestModelFromGroundTruth:
    def test_two_triangles(self):
        gt = GroundTruth(np.array([0, 0, 0, 1, 1, 1]))
        model = model_from_ground_truth(two_triangles(), gt)
        assert np.array_equal(model.weights, [[6, 0], [0, 6]])

    def test_single_cross_edge(self):
        g = build_graph([(0, 1, 1.0)], 2)
        model = model_from_ground_truth(g, GroundTruth(np.array([0, 1])))
        assert np.array_equal(model.weights, [[0, 1], [1, 0]])

    def test_empty_graph(self):
        g = build_graph([], 4)
        model = model_from_ground_truth(g, GroundTruth(np.array([0, 0, 1, 1])))
        assert np.array_equal(model.weights, np.zeros((2, 2)))

    def test_label_count_mismatch(self):
        with pytest.raises(InputError, match="labels cover 2 vertices but graph has 6"):
            model_from_ground_truth(two_triangles(), GroundTruth(np.array([0, 1])))

    def test_indicator_contraction_identity(self, rng):
        g = random_simple_graph(9, rng)
        labels = rng.integers(0, 3, size=9)
        while len(set(labels.tolist())) < 3:
            labels = rng.integers(0, 3, size=9)
        gt = GroundTruth(labels)
        b = gt.indicator()
        model = model_from_ground_truth(g, gt)
        assert np.array_equal(model.weights, b.T @ g.adjacency @ b)


def test_write_edge_list_roundtrip(tmp_path):
    g = two_triangles()
    path = tmp_path / "canonical.txt"
    write_edge_list(g, path)
    g2, _ = load_edge_list(path)
    assert np.array_equal(g2.adjacency, g.adjacency)
    write_edge_list(g2, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
