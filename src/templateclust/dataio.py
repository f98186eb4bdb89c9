"""Loading real datasets: edge lists, community label files, and template
construction from annotated ground truth."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from templateclust.errors import InputError
from templateclust.graphs import Graph, block_sums
from templateclust.metrics import GroundTruth
from templateclust.template import TemplateModel


def _parse_lines(path: str | Path) -> list[tuple[int, list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line.split()))
    return out


def load_edge_list(path: str | Path) -> tuple[Graph, dict[int, int]]:
    """Read a whitespace-separated edge list into an unweighted simple graph.

    Lines are "u v" or "u v w"; '#' starts a comment. Vertex ids are
    remapped to 0..n-1 in sorted order of the original ids; the mapping is
    returned for traceability. Directed input is symmetrized: an edge in
    either direction yields one undirected unit edge. Self-loops are
    dropped and duplicates collapse to weight 1. A weight must be positive
    and finite; any such weight also yields a unit edge.
    """
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
    return Graph(adj), id_map


def load_labels(path: str | Path, n: int, id_map: dict[int, int] | None = None) -> GroundTruth:
    """Read "vertex community" lines covering all n vertices.

    Community ids are remapped to 0..k-1 in sorted order; vertex ids are
    translated through id_map when given. A vertex may be repeated only with
    the same community.
    """
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
        if id_map is not None:
            if u not in id_map:
                raise InputError(f"{path}:{lineno}: vertex {u} does not appear in the edge list")
            u = id_map[u]
        elif not 0 <= u < n:
            raise InputError(f"{path}:{lineno}: vertex {u} is outside 0..{n - 1}")
        first, first_line = raw.setdefault(u, (c, lineno))
        if first != c:
            raise InputError(
                f"vertex {parts[0]} is labelled {first} at {path}:{first_line} and {c} at {path}:{lineno}"
            )
    file_ids = {new: orig for orig, new in id_map.items()} if id_map is not None else {}
    missing = [file_ids.get(v, v) for v in sorted(set(range(n)) - set(raw))]
    if missing:
        raise InputError(f"{path}: missing labels for vertices {missing[:20]}")
    comms = sorted({c for c, _ in raw.values()})
    comm_map = {c: i for i, c in enumerate(comms)}
    labels = np.array([comm_map[raw[v][0]] for v in range(n)], dtype=int)
    return GroundTruth(labels)


def model_from_ground_truth(g: Graph, gt: GroundTruth) -> TemplateModel:
    """Template equal to the contraction of the adjacency through the
    ground-truth indicator: B^T A B (block sums of edge weight)."""
    return TemplateModel(block_sums(g.adjacency, gt.labels))


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write the canonical normalized edge list: sorted 'u v w' lines, LF."""
    lines = []
    for i in range(g.n):
        for j in range(i, g.n):
            w = g.adjacency[i, j]
            if w != 0:
                lines.append(f"{i} {j} {w:g}\n")
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")
