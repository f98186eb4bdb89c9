import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import (
    Graph,
    GroundTruth,
    InputError,
    Partition,
    block_sums,
    build_graph,
    load_edge_list,
    load_labels,
    load_template,
    model_from_ground_truth,
)
from templateclust import dataio

from conftest import edge_weight, load_bench_workloads, random_simple_graph, two_triangles


def _parse_lines(path: str | Path) -> list[tuple[int, list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line.split()))
    return out


def load_edge_list_reference(path: str | Path) -> tuple[np.ndarray, dict[int, int]]:
    """Reference loader: each line split and converted on its own, the
    undirected pairs gathered in a set, the adjacency set pair by pair."""
    rows = _parse_lines(path)
    if not rows:
        raise InputError(f"{path}: no edges found")
    pairs: set[tuple[int, int]] = set()
    ids: set[int] = set()
    for lineno, parts in rows:
        if len(parts) not in (2, 3):
            raise InputError(f"{path}:{lineno}: expected 'u v' or 'u v w', got {' '.join(parts)!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed edge line") from exc
        if not 0 < w < np.inf:  # also false for NaN
            raise InputError(f"{path}:{lineno}: edge weight must be positive and finite, got {parts[2]}")
        ids.update((u, v))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    id_map = {orig: new for new, orig in enumerate(sorted(ids))}
    n = len(id_map)
    adj = np.zeros((n, n))
    for u, v in pairs:
        adj[id_map[u], id_map[v]] = 1.0
        adj[id_map[v], id_map[u]] = 1.0
    return adj, id_map


def load_labels_reference(path: str | Path, n: int, id_map: dict[int, int]) -> np.ndarray:
    """Reference label reader: one line at a time, first labels in a dict."""
    rows = _parse_lines(path)
    if not rows:
        raise InputError(f"{path}: no labels found")
    raw: dict[int, tuple[int, int]] = {}  # vertex -> (community, line of its first label)
    for lineno, parts in rows:
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected 'vertex community'")
        try:
            u, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed label line") from exc
        if u not in id_map:
            raise InputError(f"{path}:{lineno}: vertex {u} does not appear in the edge list")
        u = id_map[u]
        first, first_line = raw.setdefault(u, (c, lineno))
        if first != c:
            raise InputError(
                f"vertex {parts[0]} is labelled {first} at {path}:{first_line} and {c} at {path}:{lineno}"
            )
    file_ids = {new: orig for orig, new in id_map.items()}
    missing = [file_ids.get(v, v) for v in sorted(set(range(n)) - set(raw))]
    if missing:
        raise InputError(f"{path}: missing labels for vertices {missing[:20]}")
    comms = sorted({c for c, _ in raw.values()})
    comm_map = {c: i for i, c in enumerate(comms)}
    return np.array([comm_map[raw[v][0]] for v in range(n)], dtype=int)


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
        assert edge_weight(g) == 2

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 1 # note", "expected 'u v' or 'u v w', got '0 1 # note'"),
            ("0 1 #", "malformed edge line"),
            ("0 1#", "malformed edge line"),
            ("0 #1", "malformed edge line"),
        ],
    )
    def test_hash_after_data_is_not_a_comment(self, tmp_path, line, message):
        f = tmp_path / "e.txt"
        f.write_text(f"# header\n  # indented comment\n{line}\n")
        with pytest.raises(InputError, match=rf"e\.txt:3: {message}$"):
            load_edge_list(f)

    def test_crlf_and_mixed_widths(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_bytes(b"# c\r\n0 1\r\n\r\n1\t2  2.5\r\n \t\r\n 2 0 \r\n2 2 1")
        g, id_map = load_edge_list(f)
        assert np.array_equal(g.adjacency, np.ones((3, 3)) - np.eye(3))
        assert id_map == {0: 0, 1: 1, 2: 2}

    def test_byte_order_mark(self, tmp_path):
        f = tmp_path / "bom.txt"
        f.write_bytes("0 1\n1 2\n".encode("utf-8-sig"))
        g, id_map = load_edge_list(f)
        assert edge_weight(g) == 2
        assert id_map == {0: 0, 1: 1, 2: 2}

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff0 1\n", 1),
            ("0 1\r\n1 2\r\n".encode("utf-8-sig") + b"2 \xc3(\r\n", 3),  # the mark is no line
            ("0 1\r1 é 2\n".encode("utf-8") + b"\xe2\x82", 3),  # cut inside a character
        ],
    )
    def test_not_utf8_names_the_line(self, tmp_path, data, line):
        f = tmp_path / "e.txt"
        f.write_bytes(data)
        with pytest.raises(InputError, match=rf"e\.txt:{line}: not UTF-8 text: "):
            load_edge_list(f)

    @pytest.mark.parametrize("token", [str(2**63), str(-(2**63) - 1), "1" * 30])
    def test_id_outside_int64(self, tmp_path, token):
        f = tmp_path / "e.txt"
        f.write_text(f"0 1\n1 {token} 2.5\n")
        with pytest.raises(InputError, match=rf"e\.txt:2: id {token} does not fit in a 64-bit integer$"):
            load_edge_list(f)

    def test_int64_extremes_accepted(self, tmp_path):
        f = tmp_path / "e.txt"
        f.write_text(f"{2**63 - 1} {-(2**63)}\n0 {2**63 - 1}\n")
        g, id_map = load_edge_list(f)
        assert id_map == {-(2**63): 0, 0: 1, 2**63 - 1: 2}
        assert all(type(k) is int for k in id_map)
        assert edge_weight(g) == 2

    @pytest.mark.parametrize("line", ["1_0 1", "\u0663 1", "\uff13 1", "0 1 1_0.5"])
    def test_only_plain_ascii_numbers(self, tmp_path, line):
        # int() and float() would read these; the loader reads plain ASCII numbers
        f = tmp_path / "e.txt"
        f.write_text(f"0 1\n{line}\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"e\.txt:2: malformed edge line$"):
            load_edge_list(f)


class TestReadPaths:
    """A file whose data lines share one width is converted in one bulk call;
    other files are read line by line."""

    @staticmethod
    def line_reader_called(*args):
        raise AssertionError("read line by line")

    def test_email_format_never_reaches_the_line_reader(self, tmp_path, monkeypatch):
        workloads = load_bench_workloads(monkeypatch)
        workloads.write_email_graph(7, 0, tmp_path)
        assert (tmp_path / "edges-0.txt").read_text().startswith("#")
        monkeypatch.setattr(dataio, "_edge_rows", self.line_reader_called)
        monkeypatch.setattr(dataio, "_raise_label_error", self.line_reader_called)
        graph, id_map = load_edge_list(tmp_path / "edges-0.txt")
        truth = load_labels(tmp_path / "labels-0.txt", graph.n, id_map)
        assert truth.k == workloads.EMAIL_COMMUNITIES

    def test_mixed_widths_match_the_single_width_twin(self, tmp_path, monkeypatch):
        load_bench_workloads(monkeypatch).write_email_graph(0, 0, tmp_path)
        single = tmp_path / "edges-0.txt"
        lines = single.read_text().splitlines()
        mixed = write(tmp_path / "mixed.txt", "\n".join(x + " 1" if i % 2 else x for i, x in enumerate(lines)))
        graph, id_map = load_edge_list(single)
        read, edge_rows = [], dataio._edge_rows
        monkeypatch.setattr(dataio, "_edge_rows", lambda *args: read.append(args) or edge_rows(*args))
        twin, twin_map = load_edge_list(mixed)
        assert len(read) == 1
        assert np.array_equal(graph.adjacency, twin.adjacency)
        assert list(id_map.items()) == list(twin_map.items())

    def test_four_fields_on_the_first_data_line(self, tmp_path):
        f = write(tmp_path / "e.txt", "# header\n\n1 2 3 4\n0 1\n")
        with pytest.raises(InputError, match=r"e\.txt:3: expected 'u v' or 'u v w', got '1 2 3 4'$"):
            load_edge_list(f)


class TestLoadTemplate:
    def test_byte_order_mark_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_bytes("# 2 x 2\r\n\r\n6 0.5\r\n  # intra\r\n.5\t6e0\r\n \r\n".encode("utf-8-sig"))
        assert np.array_equal(load_template(f).weights, [[6, 0.5], [0.5, 6]])

    def test_one_by_one(self, tmp_path):
        assert np.array_equal(load_template(write(tmp_path / "t.txt", "5\n")).weights, [[5]])

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("6 0 # intra\n0 6\n", 1, "malformed template line"),
            ("6 0\n0 6#\n", 2, "malformed template line"),
            ("6 0\n0\n", 2, "expected 2 weights, got '0'"),
            ("6 0\n0 6 1\n", 2, "expected 2 weights, got '0 6 1'"),
            ("6 x\nx 6\n", 1, "malformed template line"),
            ("6 1_0\n1_0 6\n", 1, "malformed template line"),
            ("1 2 3\n4 5\n", 2, "expected 3 weights, got '4 5'"),
        ],
        ids=["hash-first-line", "hash-later-line", "short-row", "long-row", "word", "separator", "ragged"],
    )
    def test_malformed(self, tmp_path, text, line, reason):
        f = write(tmp_path / "t.txt", text)
        with pytest.raises(InputError, match=rf"t\.txt:{line}: {re.escape(reason)}$"):
            load_template(f)

    @pytest.mark.parametrize("text", ["", "# k x k weights\n\n  \n"])
    def test_empty(self, tmp_path, text):
        f = write(tmp_path / "t.txt", text)
        with pytest.raises(InputError, match=r"t\.txt: no template weights found$"):
            load_template(f)


class TestLoadLabels:
    def test_basic(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n1 1\n")
        gt = load_labels(f, 2, {0: 0, 1: 1})
        assert np.array_equal(gt.labels, [0, 1])

    def test_community_ids_remapped(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 7\n1 3\n2 7\n")
        gt = load_labels(f, 3, {0: 0, 1: 1, 2: 2})
        assert gt.k == 2
        assert gt.labels[0] == gt.labels[2] != gt.labels[1]

    def test_missing_vertex(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n2 1\n")
        with pytest.raises(InputError, match="missing"):
            load_labels(f, 3, {0: 0, 1: 1, 2: 2})

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
        with pytest.raises(InputError, match=rf"l\.txt:{line}: vertex {vertex} does not appear in the edge list$"):
            load_labels(f, 2, {0: 0, 1: 1})

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
            load_labels(f, 3, {0: 0, 1: 1, 2: 2})

    def test_exact_repeat_accepted(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("0 0\n1 1\n0 0\n")
        assert np.array_equal(load_labels(f, 2, {0: 0, 1: 1}).labels, [0, 1])

    def test_empty_once_comments_stripped(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("# vertex community\n\n# none\n")
        with pytest.raises(InputError, match=r"l\.txt: no labels found"):
            load_labels(f, 2, {0: 0, 1: 1})

    def test_byte_order_mark(self, tmp_path):
        f = tmp_path / "bom.txt"
        f.write_bytes("10 7\n30 3\n".encode("utf-8-sig"))
        gt = load_labels(f, 2, id_map={10: 0, 30: 1})
        assert np.array_equal(gt.labels, [1, 0])

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices(self, tmp_path, n):
        f = tmp_path / "l.txt"
        f.write_text("4 0\n")
        with pytest.raises(InputError, match="labels must be a nonempty"):
            load_labels(f, n, id_map={4: 0})

    def test_hash_after_data_is_not_a_comment(self, tmp_path):
        f = tmp_path / "l.txt"
        f.write_text("# vertex community\n0 0 # note\n1 1\n")
        with pytest.raises(InputError, match=r"l\.txt:2: expected 'vertex community'$"):
            load_labels(f, 2, {0: 0, 1: 1})

    @pytest.mark.parametrize("text", [f"0 0\n1 {2**63}\n", f"0 0\n{2**64} 1\n"])
    def test_id_outside_int64(self, tmp_path, text):
        f = tmp_path / "l.txt"
        f.write_text(text)
        with pytest.raises(InputError, match=r"l\.txt:2: id \d+ does not fit in a 64-bit integer$"):
            load_labels(f, 2, id_map={0: 0, 1: 1})

    @pytest.mark.parametrize("community, ranks", [(9, [0, 1]), (1, [0, 2])])
    def test_id_map_value_outside_n_keeps_its_community(self, tmp_path, community, ranks):
        # vertex 5 maps past n and takes no label, but its community still ranks
        f = tmp_path / "l.txt"
        f.write_text(f"4 0\n5 {community}\n6 2\n")
        id_map = {4: 0, 5: 7, 6: 1}
        assert load_labels_reference(f, 2, id_map).tolist() == ranks
        if ranks == [0, 1]:
            assert load_labels(f, 2, id_map).labels.tolist() == ranks
        else:  # community 1 has no vertex in 0..n-1
            with pytest.raises(InputError, match="labels must cover 0..k-1"):
                load_labels(f, 2, id_map)


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

    def test_weighted_graph_whose_products_round_asymmetrically(self):
        # Z^T A Z rounds (1, 0) to 3.6999999999999997 and (0, 1) to 3.7
        edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 0.7), (0, 4, 0.7), (1, 2, 0.1),
                 (1, 3, 0.7), (1, 4, 0.5), (2, 3, 0.9), (2, 4, 0.4), (3, 4, 0.4)]
        g, gt = build_graph(edges, 5), GroundTruth(np.array([0, 0, 1, 1, 1]))
        product = gt.indicator().T @ g.adjacency @ gt.indicator()
        assert product[1, 0] != product[0, 1]
        model = model_from_ground_truth(g, gt)
        assert model.weights.tolist() == [[2.0, 3.7], [3.7, 3.4000000000000004]]

    @given(
        weights=st.lists(st.integers(0, 100).map(lambda w: w / 10), min_size=1, max_size=66),
        labels=st.lists(st.integers(-3, 5), min_size=12, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_block_sums_are_exactly_symmetric(self, weights, labels):
        """For any symmetric weighted A and labels, the block sums are exactly
        symmetric, keep the product's upper triangle, and make a template."""
        n = int((1 + np.sqrt(1 + 8 * len(weights))) // 2)  # the most vertices whose pairs fit
        adj = np.zeros((n, n))
        adj[np.triu_indices(n, 1)] = weights[: n * (n - 1) // 2]
        adj += adj.T
        labels = np.array(labels[:n])
        sums = block_sums(adj, labels)
        assert np.array_equal(sums, sums.T)
        z = (labels[:, None] == np.unique(labels)).astype(float)
        assert np.array_equal(np.triu(sums), np.triu(z.T @ adj @ z))
        model = model_from_ground_truth(Graph(adj), GroundTruth(Partition(labels).labels))
        assert model.k == len(set(labels.tolist()))



# Generated files for the reference comparisons. Ids are negative, gapped
# and near the int64 limits; lines are joined by LF or CRLF.
BLANKS = st.sampled_from(["", " ", "\t", "  \t"])
SEPARATORS = st.sampled_from([" ", "\t", "   ", " \t "])
IDS = st.one_of(st.integers(-30, 30), st.sampled_from([-(2**63), -(10**12), 2**40, 2**63 - 1]))
WEIGHTS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.integers(1, 10**6).map(str),
    st.sampled_from(["+2.5", ".5", "5.", "1e-3", "7E2", "0.001"]),
)
COMMENTS = st.tuples(BLANKS, st.text(alphabet=" \t#ab01", max_size=8)).map(lambda t: f"{t[0]}#{t[1]}")


@st.composite
def data_line(draw, tokens):
    return draw(BLANKS) + draw(SEPARATORS).join(tokens) + draw(BLANKS)


@st.composite
def edge_lines(draw):
    """Data lines of an edge list, 2- and 3-field mixed; small id pools give
    both directions, duplicates and self-loops."""
    ids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), min_size=1, max_size=25))
    lines = []
    for u, v in edges:
        weight = draw(st.none() | WEIGHTS)
        lines.append(draw(data_line([str(u), str(v)] + ([weight] if weight else []))))
    return lines


@st.composite
def label_lines(draw, file_ids):
    """A label for every id, as lines in any order, some repeated exactly."""
    community = {v: draw(st.sampled_from([-3, 0, 2, 7, 40])) for v in file_ids}
    labelled = draw(st.permutations(file_ids + draw(st.lists(st.sampled_from(file_ids), max_size=4))))
    return [draw(data_line([str(v), str(community[v])])) for v in labelled], community


@st.composite
def file_text(draw, lines):
    """`lines` with comment and blank lines mixed in, joined by LF or CRLF."""
    out = []
    for line in lines:
        out += draw(st.lists(COMMENTS | BLANKS, max_size=2))
        out.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(out) + draw(st.sampled_from(["", ending]))


BAD_EDGE_LINES = st.sampled_from(
    ["x 1", "1 y", "1.5 2", "0x1 2", "1 2 abc", "5", "1 2 3 4", "1 2 0", "1 2 -1", "1 2 -0.0", "1 2 nan",
     "1 2 inf", "1 2 1e999", "0 1 # note", "0 1 #", "0 1#", "0 #1", "1 2 3#"]
)
BAD_LABEL_LINES = st.sampled_from(["x 1", "1 y", "1.5 2", "5", "1 2 3", "0 1 # note", "0 #1", "0 1#"])


def write(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))
    return path


def raised(load, *args) -> str:
    with pytest.raises(InputError) as info:
        load(*args)
    return str(info.value)


class TestMatchesReference:
    """The bulk loaders against the per-line reference loaders above."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edge_list(self, tmp_path_factory, data):
        path = write(tmp_path_factory.getbasetemp() / "edges.txt", data.draw(file_text(data.draw(edge_lines()))))
        graph, id_map = load_edge_list(path)
        adj, ref_map = load_edge_list_reference(path)
        assert np.array_equal(graph.adjacency, adj)
        assert list(id_map.items()) == list(ref_map.items())
        assert all(type(k) is int for k in id_map)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_adjacency_bytes_match_the_float_construction(self, tmp_path_factory, data):
        """The boolean adjacency `load_edge_list` hands to `Graph` ends as the
        same bytes as a float matrix built directly, the loader's former way."""
        ids = data.draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
        edges = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), min_size=1, max_size=30))
        path = write(tmp_path_factory.getbasetemp() / "edges.txt", "".join(f"{u} {v}\n" for u, v in edges))
        file_ids, ends = np.unique(np.array(edges).T, return_inverse=True)
        u, v = ends.reshape(2, -1)
        u, v = u[u != v], v[u != v]
        expected = np.zeros((file_ids.size, file_ids.size))
        expected[u, v] = 1.0
        expected[v, u] = 1.0
        adjacency = load_edge_list(path)[0].adjacency
        assert (adjacency.dtype, adjacency.shape) == (expected.dtype, expected.shape)
        assert adjacency.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_labels(self, tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        graph, id_map = load_edge_list(write(base / "edges.txt", "\n".join(data.draw(edge_lines()))))
        lines, _ = data.draw(label_lines(list(id_map)))
        path = write(base / "labels.txt", data.draw(file_text(lines)))
        expected = load_labels_reference(path, graph.n, id_map)
        assert np.array_equal(load_labels(path, graph.n, id_map).labels, expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_malformed_edge_list(self, tmp_path_factory, data):
        lines = data.draw(edge_lines())
        for bad in data.draw(st.lists(BAD_EDGE_LINES, min_size=1, max_size=2)):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(data_line([bad])))
        path = write(tmp_path_factory.getbasetemp() / "edges.txt", data.draw(file_text(lines)))
        assert raised(load_edge_list, path) == raised(load_edge_list_reference, path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_malformed_labels(self, tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        graph, id_map = load_edge_list(write(base / "edges.txt", "\n".join(data.draw(edge_lines()))))
        lines, community = data.draw(label_lines(list(id_map)))
        fault = data.draw(st.sampled_from(["line", "conflict", "unknown", "missing"]))
        if fault == "line":
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(BAD_LABEL_LINES))
        elif fault == "conflict":
            v = data.draw(st.sampled_from(list(community)))
            lines.insert(data.draw(st.integers(0, len(lines))), f"{v} {community[v] + 1}")
        elif fault == "unknown":
            lines.insert(data.draw(st.integers(0, len(lines))), "31 0")  # ids are at most 30 or far larger
        else:
            v = data.draw(st.sampled_from(list(community)))
            lines = [line for line in lines if line.split()[0] != str(v)]
        path = write(base / "labels.txt", data.draw(file_text(lines)))
        assert raised(load_labels, path, graph.n, id_map) == raised(load_labels_reference, path, graph.n, id_map)
