import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from templateclust import Graph, GroundTruth, build_graph, load_edge_list, load_labels


def two_triangles() -> Graph:
    """Two disjoint unit-weight triangles on vertices {0,1,2} and {3,4,5}."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
    return build_graph(edges, 6)


def random_simple_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
    return Graph(upper + upper.T)


def edge_weight(g: Graph) -> float:
    """Sum of weights over unordered vertex pairs, excluding self-loops."""
    return float(np.triu(g.adjacency, 1).sum())


def traced_peak(call):
    """`call()`'s result and the peak of the memory traced while it ran;
    numpy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def load_bench_workloads(monkeypatch: pytest.MonkeyPatch):
    """Import the benchmark's `bench/workloads.py`, which is not a package."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def email_graph(monkeypatch: pytest.MonkeyPatch, tmp_path: Path, seed: int, index: int) -> tuple[Graph, GroundTruth]:
    """The graph and labels `write_email_graph(seed, index)` writes for the
    benchmark's file workload, loaded as `real` loads them."""
    load_bench_workloads(monkeypatch).write_email_graph(seed, index, tmp_path)
    g, ids = load_edge_list(tmp_path / f"edges-{index}.txt")
    return g, load_labels(tmp_path / f"labels-{index}.txt", g.n, ids)


# Ways to write one labeling. `adjusted_rand_index` and `Partition` count
# labels that lie in [0, n), n the number of labels, and send any other
# labels through np.unique. "sparse" and "int64" always leave that range,
# "negative" whenever a label is below 3.
LABEL_FORMS = {
    "counted": lambda x: np.asarray(x),
    "negative": lambda x: np.asarray(x) - 3,
    "sparse": lambda x: 1000 * np.asarray(x) + 1000,
    "int64": lambda x: np.asarray(x) + (2**63 - 1000),
}


@pytest.fixture
def unique_calls(monkeypatch: pytest.MonkeyPatch) -> list:
    """The arrays np.unique is called on while the test runs."""
    calls = []
    unique = np.unique

    def counted(ar, *args, **kwargs):
        calls.append(ar)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls
