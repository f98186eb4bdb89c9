"""Loading real datasets: edge lists, community label files and template
weight files, and template construction from annotated ground truth. Every
input file the package reads is parsed here."""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from operator import contains
from pathlib import Path
from typing import NoReturn

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, block_sums
from templateclust.metrics import GroundTruth
from templateclust.template import TemplateModel

_INT64 = np.iinfo(np.int64)
# record dtypes of a file's data lines, by their token count
_EDGE_KINDS = {
    2: np.dtype([("u", np.int64), ("v", np.int64)]),
    3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
}
_LABEL_KINDS = {2: np.dtype([("vertex", np.int64), ("community", np.int64)])}


def _read_records(
    path: str | Path, kinds: dict[int, np.dtype], what: str
) -> tuple[list[str], int, np.ndarray | None]:
    """The file's lines, the token count t of its first data line, and its
    data lines parsed in one bulk call as records of the dtype `kinds[t]`.

    The records are None when t is not in `kinds`, or a data line has another
    token count or a token that is not a number, or an integer does not fit
    in int64. Numbers are read in the ASCII forms of `int()` and `float()`
    without '_' separators. The file is UTF-8, optionally with a byte-order
    mark. A line holds no data when it is blank or its first non-blank
    character is '#'; a '#' anywhere else makes the line malformed. Lines
    are split by `str.splitlines` and tokens as by `str.split`. Raises
    InputError when the file cannot be read, is not UTF-8 (naming the line
    of the first bad byte), or no line holds data.
    """
    try:
        lines = Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except OSError as exc:
        raise InputError(f"{path}: cannot read the file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after any byte-order mark, valid up to
        # exc.start; "?" stands in for the bad byte when counting lines
        lineno = len((exc.object[: exc.start].decode("utf-8") + "?").splitlines())
        raise InputError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}") from None
    first = next((len(p) for p in map(str.split, lines) if p and not p[0].startswith("#")), 0)
    if not first:
        raise InputError(f"{path}: no {what} found")
    dtype = kinds.get(first)
    # no number holds a '#', so a line with one is a comment or malformed
    hashed = np.flatnonzero(np.fromiter(map(contains, lines, repeat("#")), bool, len(lines))).tolist()
    if dtype is None or not all(lines[i].lstrip().startswith("#") for i in hashed):
        return lines, first, None
    try:
        return lines, first, np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
    except ValueError:
        return lines, first, None


def _data_lines(
    path: str | Path, lines: list[str], kinds: dict[int, np.dtype], expected: str, noun: str
) -> Iterator[tuple[int, list[str], list[int | float]]]:
    """(number, tokens, values) of each data line by `_read_records`' rules,
    t tokens read as `int`s and `float`s where the dtype `kinds[t]` holds
    integers and floats. InputError for the first line that breaks a rule:
    `expected` (formatted with the line as `got`) when t is not in `kinds`,
    then `malformed <noun> line`, then an integer outside int64."""
    numbers = {t: [int if d[f].kind == "i" else float for f in d.names] for t, d in kinds.items()}
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if (types := numbers.get(len(tokens))) is None:
            raise InputError(f"{path}:{lineno}: " + expected.format(got=" ".join(tokens)))
        try:
            if not "".join(tokens).isascii() or "_" in line:
                raise ValueError(f"not plain ASCII numbers: {line!r}")
            values = [number(token) for token, number in zip(tokens, types)]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed {noun} line") from exc
        for token, value in zip(tokens, values):
            if type(value) is int and not _INT64.min <= value <= _INT64.max:
                raise InputError(f"{path}:{lineno}: id {token} does not fit in a 64-bit integer")
        yield lineno, tokens, values


def _edge_rows(path: str | Path, lines: list[str]) -> np.ndarray:
    """The (u, v) records of the file's data lines, read one line at a
    time; raises the error of the first data line that breaks a rule of
    `load_edge_list`."""
    rows = []
    expected = "expected 'u v' or 'u v w', got {got!r}"
    for lineno, tokens, (u, v, *w) in _data_lines(path, lines, _EDGE_KINDS, expected, "edge"):
        if w and not 0 < w[0] < np.inf:  # also false for NaN
            raise InputError(f"{path}:{lineno}: edge weight must be positive and finite, got {tokens[2]}")
        rows.append((u, v))
    return np.array(rows, _EDGE_KINDS[2])


def load_edge_list(path: str | Path) -> tuple[Graph, dict[int, int]]:
    """Read a whitespace-separated edge list into an unweighted simple graph.

    Lines are "u v" or "u v w"; a line whose first non-blank character is
    '#' is a comment, and blank lines are skipped. Vertex ids are integers
    that fit in int64; they are remapped to 0..n-1 in sorted order of the
    original ids, and the mapping is returned for traceability. Directed
    input is symmetrized: an edge in either direction yields one undirected
    unit edge. Self-loops are dropped and duplicates collapse to weight 1.
    A weight must be positive and finite; any such weight also yields a
    unit edge. A file whose data lines all have one width is converted in
    one bulk call; other files are read line by line, and an error names
    the first offending line.
    """
    lines, _, rows = _read_records(path, _EDGE_KINDS, "edges")
    if rows is None or "w" in rows.dtype.names and not ((0 < rows["w"]) & (rows["w"] < np.inf)).all():
        rows = _edge_rows(path, lines)
    ids, ends = np.unique(np.concatenate([rows["u"], rows["v"]]), return_inverse=True)
    u, v = np.split(ends, 2)
    u, v = u[u != v], v[u != v]
    adj = np.zeros((ids.size, ids.size), bool)
    adj[u, v] = True
    adj[v, u] = True
    # Graph casts the booleans to float once
    return Graph(adj), dict(zip(ids.tolist(), range(ids.size)))


def _raise_label_error(path: str | Path, lines: list[str], id_map: dict[int, int]) -> NoReturn:
    """Raise the error of the first data line that breaks a rule of
    `load_labels`."""
    raw: dict[int, tuple[int, int]] = {}  # vertex -> (community, line of its first label)
    for lineno, tokens, (u, c) in _data_lines(path, lines, _LABEL_KINDS, "expected 'vertex community'", "label"):
        if u not in id_map:
            raise InputError(f"{path}:{lineno}: vertex {u} does not appear in the edge list")
        first, first_line = raw.setdefault(id_map[u], (c, lineno))
        if first != c:
            raise InputError(
                f"vertex {tokens[0]} is labelled {first} at {path}:{first_line} and {c} at {path}:{lineno}"
            )
    raise AssertionError(f"{path}: the bulk checks rejected a file whose every line is valid")


def _translate(vertex: np.ndarray, id_map: dict[int, int]) -> np.ndarray | None:
    """Vertex ids of a label file as graph vertices, or None when one of
    them is not in id_map."""
    try:
        return np.fromiter(map(id_map.__getitem__, vertex.tolist()), np.int64, vertex.size)
    except KeyError:
        return None


def load_labels(path: str | Path, n: int, id_map: dict[int, int]) -> GroundTruth:
    """Read "vertex community" lines covering all n vertices.

    Comments and blank lines follow `load_edge_list`'s rules. Community ids
    are remapped to 0..k-1 in sorted order; vertex ids are translated
    through id_map, as `load_edge_list` returns it. A vertex may be repeated
    only with the same community.
    """
    lines, _, records = _read_records(path, _LABEL_KINDS, "labels")
    vertex = None if records is None else _translate(records["vertex"], id_map)
    if vertex is None:
        _raise_label_error(path, lines, id_map)
    comm = records["community"]
    labelled, first, which = np.unique(vertex, return_index=True, return_inverse=True)
    if (comm != comm[first][which]).any():  # a vertex labelled twice, differently
        _raise_label_error(path, lines, id_map)
    # a vertex id_map sends outside 0..n-1 takes no label, but its community still counts
    _, community = np.unique(comm[first], return_inverse=True)
    inside = (0 <= labelled) & (labelled < n)
    labels = np.full(max(n, 0), -1)
    labels[labelled[inside]] = community[inside]
    missing = np.flatnonzero(labels < 0).tolist()
    if missing:
        file_ids = {new: orig for orig, new in id_map.items()}
        raise InputError(f"{path}: missing labels for vertices {[file_ids.get(v, v) for v in missing[:20]]}")
    return GroundTruth(labels)


def load_template(path: str | Path) -> TemplateModel:
    """Read a k x k template weight matrix, one row of k numbers per data
    line, where k is the first row's width. Encoding, comments, blank lines,
    number forms and errors that name their line follow `load_edge_list`'s
    rules. A template is only k lines, so it is read line by line."""
    lines, k, _ = _read_records(path, {}, "template weights")
    row = np.dtype([(f"w{j}", np.float64) for j in range(k)])
    rows = _data_lines(path, lines, {k: row}, f"expected {k} weights, got {{got!r}}", "template")
    return TemplateModel(np.array([values for *_, values in rows]))


def model_from_ground_truth(g: Graph, gt: GroundTruth) -> TemplateModel:
    """Template equal to the contraction of the adjacency through the
    ground-truth indicator: B^T A B (block sums of edge weight)."""
    return TemplateModel(block_sums(g.adjacency, gt.labels))
