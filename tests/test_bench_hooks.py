"""The traced benchmark wraps package functions by module and name.

`bench/layers.py`'s TARGETS lists each (module, attribute) it replaces with a
timing wrapper. A refactor that renames or drops one of them, or stops calling
it through its module's global, breaks the traced benchmark; these tests make
that a tier-1 failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from templateclust import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def targets(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # layers imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(mod, attr) for mod, attr, _, _ in layers.TARGETS]


def test_every_target_resolves(targets):
    missing = [
        f"{mod}.{attr}"
        for mod, attr in targets
        if not hasattr(importlib.import_module(f"templateclust.{mod}"), attr)
    ]
    assert not missing


def test_every_target_is_called_through_its_module(targets, monkeypatch, tmp_path):
    called = set()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)

        return wrapper

    for mod, attr in targets:
        owner = importlib.import_module(f"templateclust.{mod}")
        monkeypatch.setattr(owner, attr, counting((mod, attr), getattr(owner, attr)))
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i} {i // 3}\n" for i in range(6)))
    grids = (
        ["synth", "--family", "g3", "--sizes", "4"],
        ["real", "--edges", str(edges), "--labels", str(labels)],
        # tb starts the two grids above at the certified eigenvector frame;
        # c2 at size 4 never certifies, so its descent starts at random
        ["synth", "--family", "c2", "--sizes", "4"],
    )
    for i, grid in enumerate(grids):  # cli.main is looked up after patching
        assert cli.main(grid + ["--reps", "1", "--out", str(tmp_path / f"out-{i}")]) == 0
    assert set(targets) - called == set()
