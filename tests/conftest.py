import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from templateclust import Graph, build_graph


def two_triangles() -> Graph:
    """Two disjoint unit-weight triangles on vertices {0,1,2} and {3,4,5}."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
    return build_graph(edges, 6)


def random_simple_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
    return Graph(upper + upper.T)


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
