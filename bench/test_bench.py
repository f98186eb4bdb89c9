"""Tests of the benchmark's own derivations, on hand-built spans and samples."""

from __future__ import annotations

import itertools
import json
import types
from pathlib import Path

import pytest

from derive import GridOutcome, account, failed_frac, self_time, tail
from layers import PER_LAYER
from run import END_TO_END
from spans import Tracer
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_disjoint_children(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 7.0)]) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (4.0, 4.5)]) == pytest.approx(5.0)

    def test_touching_children(self):
        assert self_time(0.0, 10.0, [(2.0, 4.0), (4.0, 6.0)]) == pytest.approx(6.0)

    def test_children_clipped_to_parent(self):
        assert self_time(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]) == pytest.approx(4.0)

    def test_child_covering_parent(self):
        assert self_time(2.0, 8.0, [(1.0, 9.0), (3.0, 4.0)]) == 0.0


class TestTail:
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_none_below_eleven_samples(self, n):
        assert tail([float(i) for i in range(n)]) is None

    def test_eleven_samples_gives_the_smallest(self):
        got = tail([float(x) for x in reversed(range(11))])
        assert (got.value, got.samples) == (0.0, 11)
        assert got.percentile == pytest.approx(100.0 / 11)

    def test_ten_samples_beyond(self):
        samples = [float(x) for x in range(100)]
        got = tail(samples[::-1])
        assert got.value == 89.0
        assert sum(s > got.value for s in samples) == 10
        assert got.percentile == 90.0

    def test_ties(self):
        got = tail([1.0] * 15 + [2.0] * 5)
        assert (got.value, got.percentile) == (1.0, 50.0)


class TestFailureAccounting:
    def test_clean_grids(self):
        outcomes = [GridOutcome(10, 0, 0), GridOutcome(5, 0, 0)]
        assert account(outcomes) == (15, 0)
        assert failed_frac(outcomes) == 0.0

    def test_failed_rows_counted(self):
        outcomes = [GridOutcome(10, 0, 2), GridOutcome(10, 0, 1)]
        assert account(outcomes) == (20, 3)
        assert failed_frac(outcomes) == pytest.approx(0.15)

    def test_nonzero_exit_fails_every_row(self):
        outcomes = [GridOutcome(10, 2, 0), GridOutcome(30, 0, 3)]
        assert account(outcomes) == (40, 13)
        assert failed_frac(outcomes) == pytest.approx(13 / 40)


class TestTracer:
    def test_parents_self_time_and_restore(self):
        ticks = itertools.count()
        tracer = Tracer(clock=lambda: float(next(ticks)))
        mod = types.SimpleNamespace()
        mod.leaf = lambda x: x + 1
        mod.outer = lambda x: mod.leaf(x) + mod.leaf(x)
        original_leaf = mod.leaf
        with tracer.installed([(mod, "outer", "outer", None), (mod, "leaf", "leaf", None)]):
            assert mod.outer(1) == 4
        assert mod.leaf is original_leaf
        outer, first, second = tracer.spans
        assert [s.name for s in tracer.spans] == ["outer", "leaf", "leaf"]
        assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
        # clock ticks: outer 0..5, leaves 1..2 and 3..4
        assert (outer.start, outer.end) == (0.0, 5.0)
        children = [(s.start, s.end) for s in (first, second)]
        assert self_time(outer.start, outer.end, children) == 3.0

    def test_failed_span_and_note(self):
        tracer = Tracer()
        mod = types.SimpleNamespace(ok=lambda: 3, bad=lambda: 1 / 0)
        targets = [
            (mod, "ok", "ok", lambda args, kwargs, result: {"result": result}),
            (mod, "bad", "bad", None),
        ]
        with tracer.installed(targets):
            mod.ok()
            with pytest.raises(ZeroDivisionError):
                mod.bad()
        ok, bad = tracer.spans
        assert ok.attrs == {"result": 3} and not ok.failed
        assert bad.failed and bad.end >= bad.start


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_every_workload_runs_enough_tb_for_a_tail():
    for w in WORKLOADS.values():
        for seconds in (1, BENCHMARK["run_seconds"]):
            assert w.grid_count("tb", seconds) * w.plan["tb"].reps >= 11
