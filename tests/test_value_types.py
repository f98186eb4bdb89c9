"""The package's array-holding dataclasses compare and hash by identity.

A generated field-wise `==` would compare arrays, whose truth value numpy
refuses, and a generated `__hash__` would hash an unhashable array.
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


def clustering_result():
    model = TemplateModel(np.diag([2.0, 1.0]))
    return template_cluster(Graph(np.ones((4, 4)) - np.eye(4)), model, rng=np.random.default_rng(0))


MAKERS = {
    "Graph": lambda: Graph(np.ones((3, 3))),
    "TemplateModel": lambda: TemplateModel(np.eye(2)),
    "Partition": lambda: Partition(np.array([0, 1, 1])),
    "StiefelPoint": lambda: StiefelPoint(np.eye(3, 2)),
    "GroundTruth": lambda: GroundTruth(np.array([0, 1, 1])),
    "CommunitySpec": lambda: CommunitySpec((2, 2), np.eye(2)),
    "ClusteringResult": clustering_result,
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_equality_is_identity_and_hash_works(make):
    a, b = make(), make()
    assert a == a
    assert a != b
    assert a in {a}
    assert b not in {a}
    assert hash(a) == hash(a)


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
