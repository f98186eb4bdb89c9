"""The package's array-holding dataclasses compare and hash by identity,
and store read-only copies of the arrays they are built from.

A generated field-wise `==` would compare arrays, whose truth value numpy
refuses, and a generated `__hash__` would hash an unhashable array. A stored
array that shares memory with the caller's, or can be written, could change
after validation, and a `Graph`'s memoized factors would go stale.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import templateclust
from templateclust import (
    CommunitySpec,
    Graph,
    GroundTruth,
    Partition,
    StiefelPoint,
    TemplateModel,
    template_cluster,
)
from templateclust.template import ClusteringResult


def clustering_result(adjacency, weights):
    return template_cluster(Graph(adjacency), TemplateModel(weights), rng=np.random.default_rng(0))


# each class's constructor (or, for ClusteringResult, its producer) and a
# factory of fresh writable arrays to build it from
MAKERS = {
    "Graph": (Graph, lambda: [np.ones((3, 3))]),
    "TemplateModel": (TemplateModel, lambda: [np.eye(2)]),
    "Partition": (Partition, lambda: [np.array([0, 1, 1])]),
    "StiefelPoint": (StiefelPoint, lambda: [np.eye(3, 2)]),
    "GroundTruth": (GroundTruth, lambda: [np.array([0, 1, 1])]),
    "CommunitySpec": (CommunitySpec, lambda: [np.array([2, 2]), np.eye(2)]),
    "ClusteringResult": (clustering_result, lambda: [np.ones((4, 4)) - np.eye(4), np.diag([2.0, 1.0])]),
}


@pytest.mark.parametrize("build, inputs", MAKERS.values(), ids=MAKERS.keys())
def test_equality_is_identity_and_hash_works(build, inputs):
    a, b = build(*inputs()), build(*inputs())
    assert a == a
    assert a != b
    assert a in {a}
    assert b not in {a}
    assert hash(a) == hash(a)


@pytest.mark.parametrize("build, inputs", MAKERS.values(), ids=MAKERS.keys())
def test_stored_arrays_are_frozen_copies(build, inputs):
    given = inputs()
    value = build(*given)
    stored = {name: a for name, a in vars(value).items() if isinstance(a, np.ndarray)}
    assert stored
    snapshot = {name: a.copy() for name, a in stored.items()}
    for name, a in stored.items():
        assert not a.flags.writeable, name
    for a in given:
        a += 1
    for name, a in stored.items():
        assert np.array_equal(a, snapshot[name]), name


def test_every_array_holding_dataclass_is_covered():
    found = set()
    for info in pkgutil.iter_modules(templateclust.__path__):
        module = importlib.import_module(f"templateclust.{info.name}")
        for cls in vars(module).values():
            if (
                dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__
                and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
            ):
                found.add(cls.__name__)
    assert found == MAKERS.keys()
