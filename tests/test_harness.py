import csv
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templateclust import TemplateModel, build_graph
from templateclust.cli import main
from templateclust.errors import InputError
from templateclust import cli, harness
from templateclust.harness import (
    METHODS,
    REGISTRY,
    ExperimentConfig,
    ExperimentRecord,
    aggregate,
    run_and_write,
    method_rng,
    run_experiment,
    run_method,
)
from templateclust.synth import C2_COUPLING, check_sigma, make_bp, make_c2, make_g3, sample_graph

from conftest import load_bench_workloads


def small_cfg(**kw):
    defaults = dict(
        kind="synth",
        dataset="g3",
        sizes=(5,),
        methods=("tb", "spectral", "cnm", "louvain"),
        repetitions=2,
        base_seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


REAL = dict(kind="real", sizes=(), edges_path="missing.txt", labels_path="missing.txt")
WRONG_TYPE = {
    "sizes-int": (lambda: ExperimentConfig(kind="synth", dataset="g3", sizes=4, repetitions=1),
                  "sizes must be a tuple or list, got 4"),
    "probs-float": (lambda: small_cfg(dataset="c2", probs=0.3), "probs must be a tuple or list, got 0.3"),
    "methods-str": (lambda: small_cfg(methods="tb"), "methods must be a tuple or list, got 'tb'"),
    "sigmas-float": (lambda: small_cfg(**REAL, sigmas=0.5), "sigmas must be a tuple or list, got 0.5"),
    "c2-str": (lambda: run_experiment(small_cfg(dataset="c2", probs=("0.3",))),
               "central_inter must be a real number, got '0.3'"),
    "bp-str": (lambda: run_experiment(small_cfg(dataset="bp", probs=("0.3",))),
               "inter must be a real number, got '0.3'"),
    "sigma-str": (lambda: run_experiment(small_cfg(**REAL, sigmas=("a",))), "sigma must be a real number, got 'a'"),
    "sigma-none": (lambda: run_experiment(small_cfg(**REAL, sigmas=(None,))),
                   "sigma must be a real number, got None"),
    "make_c2": (lambda: make_c2(4, "0.3"), "central_inter must be a real number, got '0.3'"),
    "make_bp": (lambda: make_bp(4, "0.3"), "inter must be a real number, got '0.3'"),
    "check_sigma": (lambda: check_sigma("1"), "sigma must be a real number, got '1'"),
}


class TestRunExperiment:
    def test_record_grid_shape(self):
        cfg = small_cfg(sizes=(5, 8), repetitions=3)
        records = run_experiment(cfg)
        assert len(records) == 2 * 3 * 4  # points x reps x methods
        for r in records:
            assert r.seed == cfg.base_seed + r.repetition

    def test_pd_only_for_embedding_methods(self):
        records = run_experiment(small_cfg())
        for r in records:
            if r.method in ("tb", "spectral"):
                assert r.projector_distance is not None
            else:
                assert r.projector_distance is None

    def test_rerun_identical(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg())
        for ra, rb in zip(a, b):
            assert (ra.method, ra.repetition, ra.ari, ra.projector_distance) == (
                rb.method,
                rb.repetition,
                rb.ari,
                rb.projector_distance,
            )

    def test_fixed_graph_mode(self):
        cfg = small_cfg(fixed_graph=True, methods=("cnm",), repetitions=3)
        records = run_experiment(cfg)
        # same graph every repetition, deterministic method: identical ARI
        assert len({r.ari for r in records}) == 1

    def test_fixed_graph_spectral_rows_repeat(self, tmp_path):
        # spectral draws nothing from its stream, so on one graph every
        # repetition writes the first one's row but for its number and seed
        argv = ["synth", "--family", "c2", "--sizes", "10", "--probs", "0.6", "--reps", "3", "--fixed-graph"]
        assert main(argv + ["--methods", "spectral", "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader((tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()))
        assert [(row.pop("repetition"), row.pop("seed")) for row in rows] == [("0", "0"), ("1", "1"), ("2", "2")]
        assert rows[0]["status"] == "ok" and rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("fixed", [False, True], ids=["sampled", "fixed-graph"])
    def test_edgeless_graph_writes_failed_modularity_rows(self, tmp_path, fixed):
        # with --fixed-graph every repetition meets the same graph, so a
        # failure the CNM memo stored would surface as an ok row
        argv = ["synth", "--family", "bp", "--sizes", "4", "--probs", "0", "--methods", "cnm,louvain"]
        assert main(argv + ["--reps", "3"] + ["--fixed-graph"] * fixed + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["cnm"] * 3 + ["louvain"] * 3
        assert all(row.split(",")[6:] == ["failed", "", "", "", ""] for row in rows)

    def test_programming_error_propagates(self, monkeypatch):
        # only InputError and NumericalError are a repetition's failure; a
        # bug elsewhere must not hide in failed rows
        def broken(graph):
            raise TypeError("a bug")

        monkeypatch.setattr(harness, "cnm_cluster", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(small_cfg(methods=("cnm",)))

    def test_method_rows_do_not_depend_on_the_other_methods(self):
        def rows(methods):
            cfg = small_cfg(methods=methods, dataset="c2", sizes=(10,), probs=(0.42,), repetitions=5, base_seed=2)
            return [(r.method, r.repetition, r.ari, r.projector_distance, r.iterations, r.k_found)
                    for r in run_experiment(cfg)]

        full = rows(METHODS)
        assert rows(tuple(reversed(METHODS))) == full
        # records sort by method name, so the single-method grids go in that order
        assert sum((rows((method,)) for method in sorted(METHODS)), []) == full

    def test_bp_needs_probability(self):
        with pytest.raises(InputError):
            run_experiment(small_cfg(dataset="bp"))

    def test_c2_sweep_points(self):
        cfg = small_cfg(dataset="c2", sizes=(5,), probs=(0.2, 0.3), repetitions=1)
        records = run_experiment(cfg)
        assert sorted({r.param for r in records}) == [0.2, 0.3]

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            small_cfg(methods=("tb", "mystery"))

    def test_real_requires_paths(self):
        with pytest.raises(InputError):
            ExperimentConfig(kind="real", dataset="x")

    def test_c2_without_probs_resolves_its_coupling(self):
        assert small_cfg(dataset="c2").probs == (C2_COUPLING,)
        assert small_cfg(dataset="c2", probs=(0.3, None)).probs == (0.3, C2_COUPLING)
        assert small_cfg(dataset="g3").probs == (None,)
        # an explicit NaN is a value, not "none given": make_c2 rejects it later
        assert np.isnan(small_cfg(dataset="c2", probs=(float("nan"),)).probs).all()

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(sizes=(4, 5, 4)), "sizes repeats the value 4"),
            (dict(probs=(None, None)), "probs repeats the value None"),
            (dict(dataset="c2", probs=(0.3, 0.3)), "probs repeats the value 0.3"),
            (dict(dataset="c2", probs=(0.42, None)), "probs repeats the value 0.42"),
            (dict(methods=("louvain", "cnm", "louvain")), "methods repeats the value 'louvain'"),
            (
                dict(kind="real", sigmas=(0.0, 5.0, 0.0), edges_path="e.txt", labels_path="l.txt"),
                "sigmas repeats the value 0.0",
            ),
        ],
        ids=["sizes", "probs-none", "probs", "c2-default-given", "methods", "sigmas"],
    )
    def test_repeated_grid_value_rejected(self, kw, message):
        # a repeated point would write rows with the same key but different results
        with pytest.raises(InputError, match=f"^{message}$"):
            small_cfg(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(repetitions=0), "repetitions must be an integer >= 1, got 0"),
            (dict(kind="simulated"), "kind must be 'synth' or 'real', got 'simulated'"),
        ],
        ids=["repetitions", "kind"],
    )
    def test_repetitions_below_one_or_unknown_kind_rejected(self, kw, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            small_cfg(**kw)

    @pytest.mark.parametrize(
        "field, value",
        [("repetitions", 2.5), ("repetitions", True), ("repetitions", "2"), ("base_seed", 1.5), ("base_seed", "3"),
         ("base_seed", False), ("sizes", 2.5), ("sizes", True), ("sizes", np.True_), ("sizes", "5")],
    )
    def test_non_integer_count_or_seed_rejected(self, field, value):
        # a fraction or string once ended in a TypeError, and True ran one
        # repetition; a size of True once wrote a row whose size was True
        least = {"repetitions": 1, "base_seed": 0, "sizes": 1}[field]
        with pytest.raises(InputError, match=f"^{field} must be an integer >= {least}, got {re.escape(repr(value))}$"):
            small_cfg(**{field: (value,) if field == "sizes" else value})

    def test_numpy_integer_count_and_seed_accepted(self):
        cfg = small_cfg(repetitions=np.int64(2), base_seed=np.int32(3))
        assert (cfg.repetitions, cfg.base_seed) == (2, 3)

    def test_whole_number_counts_stored_as_ints(self, tmp_path):
        cfg = small_cfg(methods=("cnm",), sizes=(5.0, np.int64(6)), repetitions=1.0, base_seed=np.float32(3))
        counts = (*cfg.sizes, cfg.repetitions, cfg.base_seed)
        assert [(v, type(v)) for v in counts] == [(5, int), (6, int), (1, int), (3, int)]
        run_and_write(cfg, tmp_path)
        rows = (tmp_path / "records.csv").read_text().splitlines()
        assert [row.split(",")[:4] for row in rows[1:]] == [["g3", "cnm", "5", ""], ["g3", "cnm", "6", ""]]

    @pytest.mark.parametrize("case", WRONG_TYPE)
    def test_grid_value_of_the_wrong_type_rejected(self, case):
        # each once ended in a TypeError, or an InputError about the dtype of
        # `rates` that named no coupling; the real grids fail before their files are read
        build, message = WRONG_TYPE[case]
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()

    def test_list_axes_stored_as_tuples(self):
        # a list once differed from its field's default, so sigmas=[0.0] was
        # rejected on a synth grid as a field its kind never reads
        cfg = small_cfg(sizes=[5, 8], sigmas=[0.0], methods=["cnm"])
        assert (cfg.sizes, cfg.probs, cfg.sigmas, cfg.methods) == ((5, 8), (None,), (0.0,), ("cnm",))
        assert small_cfg(**{**REAL, "sizes": []}, sigmas=[0.0, 1.0]).sigmas == (0.0, 1.0)

    UNREAD = [
        ("synth", "sigmas", (5.0,)),
        ("synth", "edges_path", "e.txt"),
        ("synth", "labels_path", "l.txt"),
        ("real", "sizes", (5,)),
        ("real", "probs", (0.3,)),
        ("real", "intra_mode", "hub"),
        ("real", "intra_mode", "bipartite"),
        ("real", "fixed_graph", True),
    ]

    # bp's default shape, the one field listed twice, is told apart by its value
    @pytest.mark.parametrize("kind, field, value", UNREAD, ids=[
        f"{kind}-{field}" + ("-bipartite" if value == "bipartite" else "") for kind, field, value in UNREAD
    ])
    def test_field_its_kind_never_reads_rejected(self, kind, field, value):
        # a grid of that kind would run as if the field were not given
        real = dict(sizes=(), edges_path="e.txt", labels_path="l.txt") if kind == "real" else {}
        with pytest.raises(InputError, match=f"^{field} does not apply to {kind} experiments$"):
            small_cfg(kind=kind, **{**real, field: value})


def logged(monkeypatch, names):
    """Replace each of the harness's callees `names` with one that appends its
    name to the returned list before it runs."""
    log = []
    for name in names:
        def call(*args, _name=name, _real=getattr(harness, name), **kwargs):
            log.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, call)
    return log


def two_cliques_files(tmp_path):
    """Edge and label files of two 4-cliques joined by one edge."""
    edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
    lines = [f"{i} {j}\n" for lo in (0, 4) for i in range(lo, lo + 4) for j in range(i + 1, lo + 4)]
    edges.write_text("".join(lines) + "0 4\n")
    labels.write_text("".join(f"{i} {0 if i < 4 else 1}\n" for i in range(8)))
    return str(edges), str(labels)


class TestPerPointValues:
    """A point's truth, its closest orthonormal frame and its template are
    built once, before the point's first graph is sampled, and a repetition's
    graph is let go before the next is sampled: values allocated in the
    middle of a repetition, or a graph alive across the next sample, change
    the heap's layout, and with it whether a repetition's arrays reuse the
    memory the last one freed (`tests/test_allocator.py`)."""

    @pytest.mark.parametrize("fixed", [False, True], ids=["sampled", "fixed-graph"])
    def test_synth_point_values_come_before_its_samples(self, monkeypatch, fixed):
        log = logged(monkeypatch, ("expected_model", "closest_orthonormal", "sample_graph"))
        records = run_experiment(small_cfg(sizes=(5, 8), repetitions=3, fixed_graph=fixed))
        samples = ["sample_graph"] * (1 if fixed else 3)
        assert log == (["expected_model", "closest_orthonormal"] + samples) * 2
        assert all(r.status == "ok" for r in records)

    def test_real_frame_comes_once_before_the_noise(self, monkeypatch, tmp_path):
        log = logged(monkeypatch, ("model_from_ground_truth", "closest_orthonormal", "add_model_noise"))
        edges, labels = two_cliques_files(tmp_path)
        cfg = ExperimentConfig("real", "toy", methods=("tb", "spectral"), sigmas=(0.0, 0.5), repetitions=2,
                               edges_path=edges, labels_path=labels)
        run_experiment(cfg)
        assert log == ["model_from_ground_truth", "closest_orthonormal"] + ["add_model_noise"] * 4

    def test_sigma_zero_repetitions_cluster_with_the_files_template(self, monkeypatch, tmp_path):
        models = []  # the template read from the labels, then each one tb clusters with
        build, cluster = harness.model_from_ground_truth, harness.template_cluster

        def read_template(graph, truth):
            models.append(build(graph, truth))
            return models[-1]

        def template_cluster(graph, model, rng):
            models.append(model)
            return cluster(graph, model, rng=rng)

        monkeypatch.setattr(harness, "model_from_ground_truth", read_template)
        monkeypatch.setattr(harness, "template_cluster", template_cluster)
        edges, labels = two_cliques_files(tmp_path)
        cfg = ExperimentConfig("real", "toy", methods=("tb",), sigmas=(0.0, 0.5), repetitions=2,
                               edges_path=edges, labels_path=labels)
        run_experiment(cfg)
        base, *used = models
        assert [m is base for m in used] == [True, True, False, False]

    @pytest.mark.parametrize("methods", [METHODS, ("tb",), ("spectral",)])
    def test_a_repetition_graph_is_let_go_before_the_next_sample(self, monkeypatch, methods):
        sampled = []
        real = harness.sample_graph

        def sample(spec, rng):
            assert [ref() for ref in sampled if ref() is not None] == [], "a past repetition's graph is alive"
            graph, truth = real(spec, rng)
            sampled.append(weakref.ref(graph))
            return graph, truth

        monkeypatch.setattr(harness, "sample_graph", sample)
        run_experiment(small_cfg(sizes=(5, 8), repetitions=3, methods=methods))
        assert len(sampled) == 6


class TestRunMethod:
    def test_unknown_method(self):
        graph, _ = sample_graph(make_g3(4), np.random.default_rng(0))
        with pytest.raises(InputError, match="unknown method 'mystery'"):
            run_method("mystery", graph, 3, None, np.random.default_rng(0))

    @pytest.mark.parametrize("method", METHODS)
    def test_isolated_vertex_gets_a_label(self, method):
        # two triangles and vertex 6 without edges
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
        model = TemplateModel(np.diag([6.0, 6.0]))
        labels = run_method(method, build_graph(edges, 7), 2, model, np.random.default_rng(0))[0].labels
        assert labels.shape == (7,)
        assert labels.min() == 0 and labels.max() < 7
        assert labels[0] == labels[1] == labels[2] and labels[3] == labels[4] == labels[5]


# each method's index in METHODS keys its stream, so these may not move; a new
# method is appended, and spectral and CNM draw nothing
STREAM_KEYS = {"tb": 0, "spectral": 1, "cnm": 2, "louvain": 3}


class TestMethodStreams:
    def test_todays_keys_are_kept(self):
        assert METHODS[: len(STREAM_KEYS)] == tuple(STREAM_KEYS)
        draws = {method: REGISTRY[method][2] for method in STREAM_KEYS}
        assert draws == {"tb": True, "spectral": False, "cnm": False, "louvain": True}

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63), point_idx=st.integers(0, 1000), rep=st.integers(0, 10**6))
    def test_stream_is_keyed_by_place_and_index(self, method, seed, point_idx, rep):
        rng = method_rng(seed, point_idx, rep, method)
        _, _, draws = REGISTRY[method]
        if not draws:
            assert rng is None
        else:
            key = STREAM_KEYS.get(method, METHODS.index(method))
            expected = np.random.default_rng((seed, point_idx, rep, key))
            assert rng.bit_generator.state == expected.bit_generator.state


class TestRealExperiment:
    def test_synthetic_files(self, tmp_path):
        # a tiny two-community graph and labels through the real pipeline
        edges, labels = two_cliques_files(tmp_path)
        cfg = ExperimentConfig(
            kind="real",
            dataset="toy",
            methods=("tb", "louvain"),
            sigmas=(0.0, 0.5),
            repetitions=2,
            base_seed=1,
            edges_path=edges,
            labels_path=labels,
        )
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 2
        tb = [r for r in records if r.method == "tb" and r.param == 0.0]
        assert all(r.status == "ok" for r in tb)
        assert all(r.ari == 1.0 for r in tb)


class TestAggregate:
    def test_single_record_std_zero(self):
        rec = ExperimentRecord("d", "tb", 5, 0.1, 0, 0, ari=0.7)
        rows = aggregate([rec])
        assert rows[0]["ari_mean"] == 0.7
        assert rows[0]["ari_std"] == 0.0

    def test_two_records_hand_values(self):
        recs = [
            ExperimentRecord("d", "tb", 5, 0.1, 0, 0, ari=0.0),
            ExperimentRecord("d", "tb", 5, 0.1, 1, 1, ari=1.0),
        ]
        rows = aggregate(recs)
        assert rows[0]["ari_mean"] == pytest.approx(0.5)
        assert rows[0]["ari_std"] == pytest.approx(np.sqrt(0.5))

    def test_order_invariant(self):
        recs = [
            ExperimentRecord("d", "tb", 5, 0.1, i, i, ari=x)
            for i, x in enumerate([0.2, 0.9, 0.5])
        ]
        assert aggregate(recs) == aggregate(list(reversed(recs)))

    def test_failed_rows_counted(self):
        recs = [
            ExperimentRecord("d", "tb", 5, 0.1, 0, 0, ari=0.8),
            ExperimentRecord("d", "tb", 5, 0.1, 1, 1, status="failed"),
        ]
        rows = aggregate(recs)
        assert rows[0]["failures"] == 1
        assert rows[0]["ari_mean"] == 0.8

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            aggregate([])

    @pytest.mark.parametrize("text", ["0.1", None])
    def test_equal_params_built_apart_share_a_row(self, text):
        # float(text) gives each record its own object, as parsing a grid does
        recs = [
            ExperimentRecord("d", "tb", 5, None if text is None else float(text), i, i, ari=x)
            for i, x in enumerate([0.2, 0.9, 0.5])
        ]
        rows = aggregate(recs)
        assert [(row["param"], row["repetitions"]) for row in rows] == [(recs[0].param, 3)]

    def test_grids_with_and_without_a_coupling_aggregate_together(self):
        recs = [ExperimentRecord(dataset, "cnm", 5, param, rep, rep, ari=0.5)
                for dataset, param in (("c2", 0.42), ("g3", None), ("c2", 0.3)) for rep in range(2)]
        rows = aggregate(recs)
        assert [(row["dataset"], row["param"], row["repetitions"]) for row in rows] == [
            ("g3", None, 2), ("c2", 0.3, 2), ("c2", 0.42, 2)
        ]


class TestCsvOutput:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg()
        run_and_write(cfg, tmp_path / "a")
        run_and_write(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "records.csv").read_bytes() == (
            tmp_path / "b" / "records.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_header_and_lf(self, tmp_path):
        run_and_write(small_cfg(methods=("cnm",), repetitions=1), tmp_path)
        data = (tmp_path / "records.csv").read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0].startswith("dataset,method,size,param")


# records.csv of the pure-Python baselines on fixed grids; spectral and
# tb are in EMBEDDING_RECORDS. Louvain draws from its METHODS-index stream, so
# its rows are those of the full method list.
BASELINE_RECORDS = {
    "g6": (
        ["synth", "--family", "g6", "--sizes", "10", "--reps", "3"],
        """\
dataset,method,size,param,repetition,seed,status,ari,projector_distance,iterations,k_found
g6,cnm,10,,0,17,ok,0.6647727272727273,,,4
g6,cnm,10,,1,18,ok,0.7907324851127525,,,5
g6,cnm,10,,2,19,ok,0.6647727272727273,,,4
g6,louvain,10,,0,17,ok,1.0,,,6
g6,louvain,10,,1,18,ok,0.8102893890675241,,,5
g6,louvain,10,,2,19,ok,1.0,,,6
""",
    ),
    # the benchmark's g6-mid size, n = 240
    "g6-40": (
        ["synth", "--family", "g6", "--sizes", "40", "--reps", "3"],
        """\
dataset,method,size,param,repetition,seed,status,ari,projector_distance,iterations,k_found
g6,cnm,40,,0,17,ok,0.6796246648793566,,,4
g6,cnm,40,,1,18,ok,0.6796246648793566,,,4
g6,cnm,40,,2,19,ok,0.5591311176232845,,,3
g6,louvain,40,,0,17,ok,1.0,,,6
g6,louvain,40,,1,18,ok,1.0,,,6
g6,louvain,40,,2,19,ok,1.0,,,6
""",
    ),
    "c2": (
        ["synth", "--family", "c2", "--sizes", "5", "--probs", "0.42", "--reps", "3"],
        """\
dataset,method,size,param,repetition,seed,status,ari,projector_distance,iterations,k_found
c2,cnm,5,0.42,0,17,ok,0.6779661016949152,,,3
c2,cnm,5,0.42,1,18,ok,0.6149545772187281,,,3
c2,cnm,5,0.42,2,19,ok,0.6779661016949152,,,3
c2,louvain,5,0.42,0,17,ok,0.6779661016949152,,,3
c2,louvain,5,0.42,1,18,ok,0.6149545772187281,,,3
c2,louvain,5,0.42,2,19,ok,0.6779661016949152,,,3
""",
    ),
    # the benchmark's email-file workload: its graphs 0 and 1, read from files
    "email-0": (
        ["real", "--edges", "edges-0.txt", "--labels", "labels-0.txt", "--reps", "5"],
        """\
dataset,method,size,param,repetition,seed,status,ari,projector_distance,iterations,k_found
real,cnm,,0.0,0,17,ok,0.8284929042063599,,,10
real,cnm,,0.0,1,18,ok,0.8284929042063599,,,10
real,cnm,,0.0,2,19,ok,0.8284929042063599,,,10
real,cnm,,0.0,3,20,ok,0.8284929042063599,,,10
real,cnm,,0.0,4,21,ok,0.8284929042063599,,,10
real,louvain,,0.0,0,17,ok,1.0,,,12
real,louvain,,0.0,1,18,ok,0.9883224433527071,,,12
real,louvain,,0.0,2,19,ok,0.9536958745513567,,,12
real,louvain,,0.0,3,20,ok,1.0,,,12
real,louvain,,0.0,4,21,ok,0.9883224433527071,,,12
""",
    ),
    "email-1": (
        ["real", "--edges", "edges-1.txt", "--labels", "labels-1.txt", "--reps", "5"],
        """\
dataset,method,size,param,repetition,seed,status,ari,projector_distance,iterations,k_found
real,cnm,,0.0,0,17,ok,0.9428692873223029,,,12
real,cnm,,0.0,1,18,ok,0.9428692873223029,,,12
real,cnm,,0.0,2,19,ok,0.9428692873223029,,,12
real,cnm,,0.0,3,20,ok,0.9428692873223029,,,12
real,cnm,,0.0,4,21,ok,0.9428692873223029,,,12
real,louvain,,0.0,0,17,ok,0.9653550262025781,,,12
real,louvain,,0.0,1,18,ok,0.9188656610749474,,,12
real,louvain,,0.0,2,19,ok,0.9657424762940932,,,12
real,louvain,,0.0,3,20,ok,0.923275953734006,,,12
real,louvain,,0.0,4,21,ok,0.9657642041817268,,,12
""",
    ),
}


# records.csv of tb and spectral on the grids above, without the
# projector_distance column, whose last digits can move with the BLAS thread
# count. Neither method's rounding draws from an rng, so spectral's rows on a
# `real` grid's one graph repeat one value, and so do tb's on the g6 and email
# graphs, whose frames are certified. On c2/5/0.42 no frame is
# certified and tb descends from a random start, so a flipped certificate
# decision changes a row on one side or the other. Those descending rows hold
# only on the same CPU and BLAS kernels, not only the same thread count: the
# Armijo tests compare last-bit costs, and another machine read iterations
# 206, 78 and 69 where these read 60, 87 and 68
EMBEDDING_RECORDS = {
    "g6": """\
dataset,method,size,param,repetition,seed,status,ari,iterations,k_found
g6,spectral,10,,0,17,ok,1.0,,6
g6,spectral,10,,1,18,ok,1.0,,6
g6,spectral,10,,2,19,ok,1.0,,6
g6,tb,10,,0,17,ok,1.0,0,6
g6,tb,10,,1,18,ok,1.0,0,6
g6,tb,10,,2,19,ok,1.0,0,6
""",
    "g6-40": """\
dataset,method,size,param,repetition,seed,status,ari,iterations,k_found
g6,spectral,40,,0,17,ok,1.0,,6
g6,spectral,40,,1,18,ok,1.0,,6
g6,spectral,40,,2,19,ok,1.0,,6
g6,tb,40,,0,17,ok,1.0,0,6
g6,tb,40,,1,18,ok,1.0,0,6
g6,tb,40,,2,19,ok,1.0,0,6
""",
    "c2": """\
dataset,method,size,param,repetition,seed,status,ari,iterations,k_found
c2,spectral,5,0.42,0,17,ok,0.634334103156274,,4
c2,spectral,5,0.42,1,18,ok,0.6334405144694534,,4
c2,spectral,5,0.42,2,19,ok,0.6334405144694534,,4
c2,tb,5,0.42,0,17,ok,0.6705202312138728,60,4
c2,tb,5,0.42,1,18,ok,0.7556270096463023,87,4
c2,tb,5,0.42,2,19,ok,0.6077621800165153,68,4
""",
    "email-0": """\
dataset,method,size,param,repetition,seed,status,ari,iterations,k_found
real,spectral,,0.0,0,17,ok,1.0,,12
real,spectral,,0.0,1,18,ok,1.0,,12
real,spectral,,0.0,2,19,ok,1.0,,12
real,spectral,,0.0,3,20,ok,1.0,,12
real,spectral,,0.0,4,21,ok,1.0,,12
real,tb,,0.0,0,17,ok,0.9664953889030142,0,12
real,tb,,0.0,1,18,ok,0.9664953889030142,0,12
real,tb,,0.0,2,19,ok,0.9664953889030142,0,12
real,tb,,0.0,3,20,ok,0.9664953889030142,0,12
real,tb,,0.0,4,21,ok,0.9664953889030142,0,12
""",
    "email-1": """\
dataset,method,size,param,repetition,seed,status,ari,iterations,k_found
real,spectral,,0.0,0,17,ok,0.7169195106063108,,12
real,spectral,,0.0,1,18,ok,0.7169195106063108,,12
real,spectral,,0.0,2,19,ok,0.7169195106063108,,12
real,spectral,,0.0,3,20,ok,0.7169195106063108,,12
real,spectral,,0.0,4,21,ok,0.7169195106063108,,12
real,tb,,0.0,0,17,ok,0.9653550262025781,0,12
real,tb,,0.0,1,18,ok,0.9653550262025781,0,12
real,tb,,0.0,2,19,ok,0.9653550262025781,0,12
real,tb,,0.0,3,20,ok,0.9653550262025781,0,12
real,tb,,0.0,4,21,ok,0.9653550262025781,0,12
""",
}


def grid_records(monkeypatch, tmp_path, grid, methods):
    """records.csv of one seed-17 grid; `real` grids read the benchmark's email graphs 0 and 1."""
    if grid[0] == "real":
        workloads = load_bench_workloads(monkeypatch)
        for index in (0, 1):
            workloads.write_email_graph(0, index, tmp_path)
        monkeypatch.chdir(tmp_path)
    argv = [*grid, "--methods", methods, "--seed", "17"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    return (tmp_path / "out" / "records.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("family", sorted(BASELINE_RECORDS))
def test_baseline_records_unchanged(monkeypatch, tmp_path, family):
    grid, expected = BASELINE_RECORDS[family]
    assert grid_records(monkeypatch, tmp_path, grid, "cnm,louvain") == expected


@pytest.mark.parametrize("family", sorted(EMBEDDING_RECORDS))
def test_embedding_records_unchanged(monkeypatch, tmp_path, family):
    text = grid_records(monkeypatch, tmp_path, BASELINE_RECORDS[family][0], "tb,spectral")
    rows = [line.split(",") for line in text.splitlines()]
    column = rows[0].index("projector_distance")
    assert "".join(",".join(row[:column] + row[column + 1 :]) + "\n" for row in rows) == EMBEDDING_RECORDS[family]


def test_blas_free_methods_ignore_the_blas_thread_count(tmp_path):
    """Sampling, CNM and Louvain call no BLAS routine whose sums split by
    thread, so their records.csv is the same under one and two BLAS threads.
    tb and spectral are left out: their projector distances can differ in the
    last digits (see the README's "Output format")."""
    src = Path(__file__).resolve().parent.parent / "src"
    grid = ["synth", "--family", "g6", "--sizes", "40", "--reps", "2", "--methods", "cnm,louvain"]
    records = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "templateclust", *grid, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        records.append((out / "records.csv").read_bytes())
    assert records[0] == records[1]


def test_c2_without_probs_writes_its_coupling(tmp_path):
    base = ["synth", "--family", "c2", "--sizes", "5", "--reps", "1", "--methods", "cnm"]
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    assert main(base + ["--probs", "0.42", "--out", str(tmp_path / "given")]) == 0
    records = (tmp_path / "default" / "records.csv").read_text(encoding="utf-8")
    assert records.splitlines()[1].startswith("c2,cnm,5,0.42,0,0,ok,")
    for name in ("records.csv", "summary.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "given" / name).read_bytes()


# (cluster's input flags, the matching grid's) for one graph or planted family
CLUSTER_GRIDS = {
    "g3": (["--family", "g3", "--size", "10"], ["synth", "--family", "g3", "--sizes", "10"]),
    "c2": (
        ["--family", "c2", "--size", "10", "--prob", "0.42"],
        ["synth", "--family", "c2", "--sizes", "10", "--probs", "0.42"],
    ),
    # no coupling on either side: both take c2's default from ExperimentConfig
    "c2-default": (["--family", "c2", "--size", "10"], ["synth", "--family", "c2", "--sizes", "10"]),
    "bp-hub": (
        ["--family", "bp", "--size", "10", "--prob", "0.6", "--intra-mode", "hub"],
        ["synth", "--family", "bp", "--sizes", "10", "--probs", "0.6", "--intra-mode", "hub"],
    ),
    "email": (
        ["--edges", "edges-0.txt", "--labels", "labels-0.txt"],
        ["real", "--edges", "edges-0.txt", "--labels", "labels-0.txt", "--sigma-list", "0"],
    ),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(CLUSTER_GRIDS))
def test_cluster_matches_the_first_grid_row(monkeypatch, tmp_path, capsys, case, method):
    """`cluster --seed s` draws the streams of repetition 0 at point 0 of a
    seed-s grid, so it prints that row's ari and k_found."""
    if case == "email":
        load_bench_workloads(monkeypatch).write_email_graph(0, 0, tmp_path)
    monkeypatch.chdir(tmp_path)
    single, grid = CLUSTER_GRIDS[case]
    assert main(["cluster", *single, "--method", method, "--seed", "5"]) == 0
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert main([*grid, "--methods", method, "--reps", "1", "--seed", "5", "--out", "out"]) == 0
    with open(tmp_path / "out" / "records.csv", encoding="utf-8", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert (printed["ari"], printed["k_found"]) == (f"{float(row['ari']):.6f}", row["k_found"])


class TestCli:
    def test_synth_command(self, tmp_path, capsys):
        rc = main(
            [
                "synth",
                "--family",
                "g3",
                "--sizes",
                "5",
                "--methods",
                "cnm",
                "--reps",
                "2",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_cluster_command(self, capsys):
        rc = main(
            ["cluster", "--family", "g3", "--size", "6", "--method", "tb", "--seed", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("labels:")
        assert "ari:" in out

    def test_input_error_exit_code(self, capsys):
        rc = main(["cluster", "--method", "tb"])
        assert rc == 1

    def test_cluster_family_without_size_exit_code(self, capsys):
        assert main(["cluster", "--family", "g3", "--method", "tb"]) == 1
        assert capsys.readouterr().err == "error: --family needs --size\n"

    @pytest.mark.parametrize(
        "method, message",
        [
            ("tb", "method tb needs --template, --labels, or --family"),
            ("spectral", "method spectral needs --k, --template, or --labels"),
        ],
        ids=["tb", "spectral"],
    )
    def test_cluster_edges_without_k_exit_code(self, tmp_path, capsys, method, message):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main(["cluster", "--edges", str(edges), "--method", method]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cluster_tb_labels_canonical(self, capsys):
        # at this seed k-means numbers the clusters 2, 0, 1 in vertex order
        rc = main(["cluster", "--family", "g3", "--size", "6", "--method", "tb", "--seed", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [int(x) for x in lines[0].split()[1:]]
        k_found = int(lines[-1].split()[1])
        assert labels[0] == 0
        assert sorted(set(labels)) == list(range(k_found))
        firsts = [labels.index(c) for c in range(k_found)]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("command", ["cluster", "real"])
    def test_label_for_unknown_vertex_exit_code(self, tmp_path, capsys, command):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {i // 3}\n" for i in range(6)) + "99 1\n")
        argv = {
            "cluster": ["cluster", "--method", "cnm"],
            "real": ["real", "--methods", "cnm", "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv + ["--edges", str(edges), "--labels", str(labels)]) == 1
        assert "labels.txt:7: vertex 99" in capsys.readouterr().err

    def test_cluster_missing_label_named_as_in_file(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("10 20\n20 30\n30 10\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("10 0\n30 1\n")
        assert main(["cluster", "--edges", str(edges), "--labels", str(labels)]) == 1
        assert "missing labels for vertices [20]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 0\n1 0\n2 1\n1 1\n", "vertex 1 is labelled 0 at"),
            ("# vertex community\n", "no labels found"),
        ],
    )
    def test_bad_label_file_exit_code(self, tmp_path, capsys, text, message):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text(text)
        argv = ["real", "--edges", str(edges), "--labels", str(labels), "--out", str(tmp_path / "out")]
        assert main(argv + ["--methods", "cnm"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["synth", "--family", "c2", "--sizes", "5", "--probs", ","], "probs"),
            (["synth", "--family", "g3", "--sizes", ","], "sizes"),
            (["synth", "--family", "g3", "--sizes", "5", "--methods", ","], "methods"),
            (["real", "--edges", "e.txt", "--labels", "l.txt", "--sigma-list", ","], "sigmas"),
            (["real", "--edges", "e.txt", "--labels", "l.txt", "--methods", ","], "methods"),
        ],
    )
    def test_empty_grid_axis_exit_code(self, tmp_path, capsys, argv, field):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert f"error: {field} must name at least one value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--family", "g3", "--sizes", "4,4"], "sizes repeats the value 4"),
            (["synth", "--family", "c2", "--sizes", "4", "--probs", "0.42,0.42"], "probs repeats the value 0.42"),
            (["synth", "--family", "g3", "--sizes", "4", "--methods", "louvain,louvain"], "methods repeats"),
            (["real", "--edges", "e.txt", "--labels", "l.txt", "--sigma-list", "0,0"], "sigmas repeats"),
        ],
        ids=["sizes", "c2-probs", "methods", "sigmas"],
    )
    def test_repeated_grid_value_exit_code(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--reps", "2", "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--family", "g3", "--sizes", "4", "--seed", "-1"],
             "error: --seed must be an integer >= 0, got -1"),
            (["cluster", "--family", "g3", "--size", "4", "--seed", "-1"],
             "error: --seed must be an integer >= 0, got -1"),
            (["real", "--sigma-list", "nan", "--methods", "cnm"], "error: sigma must be >= 0, got nan"),
            (["real", "--sigma-list", "inf", "--methods", "cnm"], "error: sigma must be finite, got inf"),
            # at seed 0 the first noise draw of the second sigma overflows to -inf
            (
                ["real", "--sigma-list", "0,1.5e308", "--methods", "cnm"],
                "error: sigma 1.5e+308 makes the template weights non-finite",
            ),
        ],
        ids=["synth-seed", "cluster-seed", "real-sigma", "real-sigma-inf", "real-sigma-overflow"],
    )
    def test_bad_seed_or_sigma_exit_code(self, tmp_path, capsys, argv, message):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("0 0\n1 0\n2 1\n")
        if argv[0] == "real":
            argv = argv + ["--edges", str(edges), "--labels", str(labels)]
        if argv[0] != "cluster":
            argv = argv + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--family", "g3", "--sizes", "4", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
            (["real", "--seed", "-2"], "--seed must be an integer >= 0, got -2"),
            (["cluster", "--family", "g3", "--size", "4", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
            (["synth", "--family", "g3", "--sizes", "4,0"], "--sizes must be an integer >= 1, got 0"),
            (["cluster", "--family", "g3", "--size", "0"], "--size must be an integer >= 1, got 0"),
            (["synth", "--family", "g3", "--sizes", "4", "--reps", "0"], "--reps must be an integer >= 1, got 0"),
            (["real", "--reps", "-3"], "--reps must be an integer >= 1, got -3"),
        ],
        ids=["synth-seed", "real-seed", "cluster-seed", "synth-sizes", "cluster-size", "synth-reps", "real-reps"],
    )
    def test_count_flag_error_names_the_flag(self, tmp_path, capsys, argv, message):
        """A count is checked as its flag is parsed, before any file is
        read, and the error names the flag the user typed."""
        if argv[0] == "real":
            argv = argv + ["--edges", str(tmp_path / "missing.txt"), "--labels", str(tmp_path / "missing.txt")]
        if argv[0] != "cluster":
            argv = argv + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["synth", "--family", "c2", "--sizes", "40", "--probs", "0.3,0.95", "--reps", "30"],
                "error: central_inter must lie in [0, 0.9] to keep rates valid",
            ),
            (["synth", "--family", "c2", "--sizes", "10,0", "--reps", "2"],
             "error: --sizes must be an integer >= 1, got 0"),
            (["real", "--sigma-list", "0,nan", "--reps", "2"], "error: sigma must be >= 0, got nan"),
            # a NaN coupling is a value, not "none given", and meets the family's own check
            (["synth", "--family", "g3", "--sizes", "4", "--probs", "nan"],
             "error: family g3 takes no coupling probability, got nan"),
            (["synth", "--family", "c2", "--sizes", "4", "--probs", "nan"],
             "error: central_inter must lie in [0, 0.9] to keep rates valid"),
            (["synth", "--family", "c2", "--sizes", "4", "--probs", "nan,0.42"],
             "error: central_inter must lie in [0, 0.9] to keep rates valid"),
            (["synth", "--family", "bp", "--sizes", "4", "--probs", "nan", "--intra-mode", "hub"],
             "error: non-finite values (NaN or inf) in rates"),
            (["cluster", "--family", "c2", "--size", "5", "--prob", "nan"],
             "error: central_inter must lie in [0, 0.9] to keep rates valid"),
            (["cluster", "--edges", "/nonexistent.txt", "--prob", "nan"],
             "error: --size, --prob and --intra-mode need --family"),
            # bp's default shape, given to another family or to no family, would be dropped
            (["synth", "--family", "g6", "--sizes", "10", "--intra-mode", "bipartite"],
             "error: intra_mode 'bipartite' applies only to family bp, not g6"),
            (["cluster", "--family", "c2", "--size", "5", "--prob", "0.3", "--method", "cnm", "--intra-mode", "bipartite"],
             "error: intra_mode 'bipartite' applies only to family bp, not c2"),
            (["cluster", "--edges", "e.txt", "--method", "cnm", "--intra-mode", "bipartite"],
             "error: --size, --prob and --intra-mode need --family"),
        ],
        ids=["c2-probs", "sizes", "real-sigma", "g3-nan", "c2-nan", "c2-nan-given", "bp-nan", "cluster-nan",
             "cluster-edges-nan", "g6-bipartite", "cluster-c2-bipartite", "cluster-edges-bipartite"],
    )
    def test_bad_grid_point_fails_before_any_repetition(self, tmp_path, monkeypatch, capsys, argv, message):
        calls = []

        def counting_run_method(*args):
            calls.append(args[0])
            return run_method(*args)

        monkeypatch.setattr(harness, "run_method", counting_run_method)
        monkeypatch.setattr(cli, "run_method", counting_run_method)
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("0 0\n1 0\n2 1\n")
        if argv[0] == "real":
            argv = argv + ["--edges", str(edges), "--labels", str(labels)]
        if argv[0] != "cluster":
            argv = argv + ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--family", "c2", "--sizes", "4", "--probs", "nan"],
            ["synth", "--family", "g3", "--sizes", "10,0"],
            ["synth", "--family", "c2", "--sizes", "4", "--probs", "0.95"],
            ["real", "--edges", "edges.txt", "--labels", "labels.txt", "--sigma-list", "0,nan"],
            ["real", "--edges", "missing.txt", "--labels", "labels.txt"],
        ],
        ids=["c2-nan", "sizes", "c2-probs", "real-sigma", "real-missing"],
    )
    def test_rejected_grid_leaves_no_output_directory(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("edges.txt").write_text("0 1\n1 2\n2 0\n")
        Path("labels.txt").write_text("0 0\n1 0\n2 1\n")
        Path("kept").mkdir()
        for out in ["out/a/b", "out/../c/d"]:  # mkdir makes "out" and "c" for the second
            assert main(argv + ["--out", out]) == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert not Path("out").exists() and not Path("c").exists()
        # a directory that was there before the run stays, though empty
        assert main(argv + ["--out", "kept/c"]) == 1
        assert sorted(tmp_path.iterdir()) == [tmp_path / "edges.txt", tmp_path / "kept", tmp_path / "labels.txt"]
        assert list(Path("kept").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, fault, code, err",
        [
            # at seed 0 the second sigma's first noise draw overflows, after the first sigma's repetitions
            (["real", "--edges", "edges.txt", "--labels", "labels.txt", "--sigma-list", "0,1.5e308", "--reps", "2"],
             None, 1, "error: sigma 1.5e+308 makes the template weights non-finite\n"),
            (["synth", "--family", "g3", "--sizes", "4", "--reps", "3"], 2, 2, "failure: a fault in the program\n"),
        ],
        ids=["real-overflow", "synth-fault"],
    )
    def test_grid_failing_partway_leaves_no_output_directory(self, tmp_path, monkeypatch, capsys, argv, fault, code,
                                                             err):
        calls = []

        def run(*args):
            calls.append(args[0])
            if len(calls) == fault:  # repetition 1 of the one method
                raise RuntimeError("a fault in the program")
            return run_method(*args)

        monkeypatch.setattr(harness, "run_method", run)
        monkeypatch.chdir(tmp_path)
        Path("edges.txt").write_text("0 1\n1 2\n2 0\n")
        Path("labels.txt").write_text("0 0\n1 0\n2 1\n")
        assert main(argv + ["--methods", "cnm", "--out", "out/a"]) == code
        assert capsys.readouterr().err == err
        assert calls == ["cnm", "cnm"]  # the failure came after two repetitions had run
        assert not Path("out").exists()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_cluster_k_below_one_exit_code(self, capsys, k):
        rc = main(["cluster", "--family", "g3", "--size", "4", "--method", "spectral", "--k", k])
        assert rc == 1
        assert f"--k must be an integer >= 1, got {k}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "g3", "--size", "5", "--edges", "/nonexistent.txt"], "give either --family or --edges"),
            (["--family", "g3", "--size", "5", "--labels", "/nonexistent.txt"], "--labels needs --edges"),
            (["--edges", "/nonexistent.txt", "--size", "5"], "--size, --prob and --intra-mode need --family"),
            (["--edges", "/nonexistent.txt", "--prob", "0.3"], "--size, --prob and --intra-mode need --family"),
            (["--edges", "/nonexistent.txt", "--intra-mode", "hub"], "--size, --prob and --intra-mode need --family"),
            (["--family", "g6", "--size", "5", "--prob", "0.9"], "family g6 takes no coupling probability"),
            (["--family", "g6", "--size", "5", "--intra-mode", "hub"], "applies only to family bp, not g6"),
            # the template file is never opened
            (["--family", "c2", "--size", "5", "--template", "/nonexistent.txt"],
             "--template does not apply to cnm: it chooses the number of communities itself"),
            (["--family", "c2", "--size", "5", "--template", "/nonexistent.txt", "--method", "louvain"],
             "--template does not apply to louvain: it chooses the number of communities itself"),
        ],
    )
    def test_cluster_flag_it_would_drop_exit_code(self, capsys, argv, message):
        assert main(["cluster", "--method", "cnm"] + argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--family", "g3", "--sizes", "a"], "argument --sizes: expected comma-separated integers, got 'a'"),
            (["synth", "--family", "c2", "--sizes", "4", "--probs", "x"],
             "argument --probs: expected comma-separated numbers, got 'x'"),
            (["real", "--sigma-list", "0,q"], "argument --sigma-list: expected comma-separated numbers, got '0,q'"),
            (["synth", "--family", "zz", "--sizes", "4"], "argument --family: invalid choice: 'zz'"),
            (["cluster", "--family", "g3", "--size", "x"], "argument --size: invalid int value: 'x'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["synth-sizes", "synth-probs", "real-sigma-list", "synth-family", "cluster-size", "command"],
    )
    def test_usage_error_exit_code(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path / "out")] if argv[0] == "synth" else argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"], ["cluster", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: templateclust")

    def test_synth_probability_the_family_ignores_exit_code(self, tmp_path, capsys):
        argv = ["synth", "--family", "g3", "--sizes", "5", "--probs", "0.1,0.9", "--methods", "cnm"]
        assert main(argv + ["--reps", "1", "--out", str(tmp_path / "out")]) == 1
        assert "family g3 takes no coupling probability" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["-1", "0", "nan", "inf"])
    def test_cluster_bad_edge_weight_exit_code(self, tmp_path, capsys, weight):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"0 1\n1 2 {weight}\n2 0\n")
        rc = main(["cluster", "--edges", str(edges), "--method", "cnm"])
        assert rc == 1
        assert f"edges.txt:2: edge weight must be positive and finite, got {weight}" in capsys.readouterr().err

    def test_cluster_tb_k_differs_from_template_exit_code(self, capsys):
        rc = main(["cluster", "--family", "g3", "--size", "10", "--k", "2", "--method", "tb"])
        assert rc == 1
        assert "--k 2 differs from the template's k=3" in capsys.readouterr().err

    def test_cluster_tb_k_equal_to_template(self, capsys):
        rc = main(["cluster", "--family", "g3", "--size", "10", "--k", "3", "--method", "tb", "--seed", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "k_found: 3"

    @pytest.mark.parametrize("method", ["cnm", "louvain"])
    @pytest.mark.parametrize("k", ["2", "3", "0"])
    def test_cluster_modularity_method_rejects_k(self, capsys, method, k):
        rc = main(["cluster", "--family", "g3", "--size", "10", "--k", k, "--method", method])
        assert rc == 1
        assert f"--k does not apply to {method}: it chooses the number of communities itself" in (
            capsys.readouterr().err
        )

    def test_cluster_spectral_k_differs_from_template_exit_code(self, tmp_path, capsys):
        template = tmp_path / "template.txt"
        template.write_text("6 1\n1 6\n")
        rc = main(["cluster", "--family", "c2", "--size", "5", "--method", "spectral", "--template", str(template),
                   "--k", "3"])
        assert rc == 1
        assert "--k 3 differs from the template's k=2; spectral takes k from the template" in capsys.readouterr().err

    def test_cluster_spectral_k_overrides_family_k(self, capsys):
        rc = main(["cluster", "--family", "g3", "--size", "10", "--method", "spectral", "--k", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "k_found: 2"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cluster_tb_cost_overflow_exit_code(self, tmp_path, capsys):
        # finite weights the template accepts, but the misfit overflows to inf
        template = tmp_path / "template.txt"
        template.write_text("1e200 0 0\n0 1e200 0\n0 0 1e200\n")
        rc = main(["cluster", "--family", "g3", "--size", "6", "--template", str(template), "--method", "tb"])
        assert rc == 2
        assert "failure: cost is not finite at the starting point" in capsys.readouterr().err

    @pytest.mark.parametrize("warning_flags", [[], ["-W", "error"]], ids=["default", "warnings-as-errors"])
    def test_cluster_tb_cost_overflow_prints_only_failure(self, tmp_path, warning_flags):
        # numpy's overflow warning would go to stderr before the failure line,
        # or, with warnings as errors, replace it with "overflow encountered"
        template = tmp_path / "template.txt"
        template.write_text("1e200 0 0\n0 1e200 0\n0 0 1e200\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        args = ["cluster", "--family", "g3", "--size", "6", "--template", str(template), "--method", "tb"]
        proc = subprocess.run(
            [sys.executable, *warning_flags, "-m", "templateclust", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == "failure: cost is not finite at the starting point\n"

    def test_cluster_spectral_k_above_n_exit_code(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        rc = main(["cluster", "--edges", str(edges), "--method", "spectral", "--k", "4"])
        assert rc == 1
        assert "k must be an integer from 1 to 3, got 4" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [3, 4])
    def test_cluster_tb_template_not_below_n_exit_code(self, tmp_path, capsys, k):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        template = tmp_path / "template.txt"
        template.write_text("".join(" ".join("1" if i == j else "0" for j in range(k)) + "\n" for i in range(k)))
        rc = main(["cluster", "--edges", str(edges), "--method", "tb", "--template", str(template)])
        assert rc == 1
        assert f"graph has n=3 vertices but template needs n > k={k}" in capsys.readouterr().err

    def test_cluster_non_finite_template_exit_code(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        template = tmp_path / "template.txt"
        template.write_text("6 nan\nnan 6\n")
        rc = main(["cluster", "--edges", str(edges), "--template", str(template)])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err

    def test_cluster_malformed_template_exit_code(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        template = tmp_path / "template.txt"
        template.write_text("6 x\nx 6\n")
        rc = main(["cluster", "--edges", str(edges), "--template", str(template)])
        assert rc == 1
        assert "template.txt:1: malformed template line" in capsys.readouterr().err

    def test_cluster_template_hash_after_data_exit_code(self, tmp_path, capsys):
        # a '#' after a row's numbers is malformed, as in edge and label files
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        template = tmp_path / "template.txt"
        template.write_text("6 0 # intra\n0 6\n")
        assert main(["cluster", "--edges", str(edges), "--template", str(template)]) == 1
        assert capsys.readouterr().err == f"error: {template}:1: malformed template line\n"

    def test_cluster_template_file_with_byte_order_mark(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_bytes("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n".encode("utf-8-sig"))
        template = tmp_path / "template.txt"
        template.write_bytes("6 0\n0 6\n".encode("utf-8-sig"))
        rc = main(["cluster", "--edges", str(edges), "--template", str(template), "--method", "tb", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "labels: 0 0 0 1 1 1"

    @pytest.mark.parametrize("text", ["", "# k x k weights\n\n"])
    def test_cluster_empty_template_exit_code(self, tmp_path, capsys, text):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        template = tmp_path / "template.txt"
        template.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning would become a failure
            rc = main(["cluster", "--edges", str(edges), "--template", str(template)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {template}: no template weights found\n"

    def test_cluster_with_template_file(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        template = tmp_path / "template.txt"
        template.write_text("6 0\n0 6\n")
        rc = main(
            [
                "cluster",
                "--edges",
                str(edges),
                "--template",
                str(template),
                "--method",
                "tb",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        labels = [int(x) for x in out.splitlines()[0].split()[1:]]
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    @pytest.mark.parametrize("method", ["tb", "spectral"])
    def test_cluster_template_file_decides_over_the_labels(self, monkeypatch, tmp_path, capsys, method):
        # a 6-community template on a 12-community graph: the file, not the
        # labels' block sums, sets the partition, and the labels give its ari
        load_bench_workloads(monkeypatch).write_email_graph(3, 0, tmp_path)
        template = tmp_path / "template.txt"
        template.write_text("".join(" ".join("60" if i == j else "2" for j in range(6)) + "\n" for i in range(6)))
        argv = ["cluster", "--edges", str(tmp_path / "edges-0.txt"), "--template", str(template),
                "--method", method, "--seed", "7"]
        assert main(argv) == 0
        unlabelled = capsys.readouterr().out.splitlines()
        assert main([*argv, "--labels", str(tmp_path / "labels-0.txt")]) == 0
        labelled = capsys.readouterr().out.splitlines()
        assert labelled[0] == unlabelled[0]
        assert labelled[1].startswith("ari: ")
        assert labelled[2] == unlabelled[1] == "k_found: 6"

    def test_cluster_spectral_with_k(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        rc = main(
            ["cluster", "--edges", str(edges), "--method", "spectral", "--k", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "k_found: 2" in out

    def test_real_command(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        labels = tmp_path / "labels.txt"
        lines = []
        for i in range(5):
            for j in range(i + 1, 5):
                lines.append(f"{i} {j}\n")
        for i in range(5, 10):
            for j in range(i + 1, 10):
                lines.append(f"{i} {j}\n")
        lines.append("0 5\n")
        edges.write_text("".join(lines))
        labels.write_text("".join(f"{i} {0 if i < 5 else 1}\n" for i in range(10)))
        rc = main(
            [
                "real",
                "--edges",
                str(edges),
                "--labels",
                str(labels),
                "--methods",
                "tb",
                "--reps",
                "2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "records.csv").exists()


UNREADABLE = {
    "missing": lambda path: None,
    "directory": Path.mkdir,
    "not UTF-8": lambda path: path.write_bytes(b"0 1\n1 2 \xff\n"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("command, flag", [("real", "--edges"), ("real", "--labels"), ("cluster", "--edges"),
                                           ("cluster", "--template")])
def test_unreadable_file_is_an_input_error(tmp_path, capsys, case, command, flag):
    """A file that cannot be read or decoded exits 1, like any bad input,
    with a message that names the file and, for a decode error, the line."""
    files = {"--edges": tmp_path / "edges.txt", "--labels": tmp_path / "labels.txt",
             "--template": tmp_path / "template.txt"}
    files["--edges"].write_text("0 1\n1 2\n2 0\n")
    files["--labels"].write_text("0 0\n1 0\n2 1\n")
    files["--template"].write_text("1 0\n0 1\n")
    bad = files[flag] = tmp_path / "bad"
    UNREADABLE[case](bad)
    argv, given = {
        "real": (["real", "--methods", "cnm", "--reps", "1", "--out", str(tmp_path / "out")], ["--edges", "--labels"]),
        "cluster": (["cluster", "--method", "tb"], ["--edges", flag]),
    }[command]
    for name in dict.fromkeys(given):
        argv += [name, str(files[name])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: not UTF-8" if case == "not UTF-8" else f"error: {bad}: cannot read"), err


@pytest.mark.parametrize("under, reason", [("", "File exists"), ("sub", "Not a directory")])
def test_out_through_a_file_is_an_input_error(tmp_path, capsys, under, reason):
    """--out naming a regular file, or a path under one, exits 1 with a
    message that names the output directory and the reason."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / under if under else afile
    argv = ["synth", "--family", "g3", "--sizes", "3", "--reps", "1", "--methods", "cnm", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out}: cannot make the output directory: {reason}\n"
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("under, reason", [("", "File exists"), ("sub", "Not a directory"), ("a/b", "Not a directory")])
def test_unmakeable_out_is_rejected_before_the_first_repetition(tmp_path, monkeypatch, capsys, under, reason):
    """The check makes nothing and runs no repetition: it reports what
    mkdir would, before the grid."""
    runs = []
    monkeypatch.setattr(harness, "run_method", lambda *args: runs.append(args[0]) or run_method(*args))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / under if under else afile
    argv = ["synth", "--family", "g6", "--sizes", "40", "--reps", "30", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {out}: cannot make the output directory: {reason}\n"
    assert runs == [] and afile.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == [afile]


def test_out_is_made_after_the_grid_has_run(tmp_path, monkeypatch):
    out = tmp_path / "out" / "a"
    seen = []

    def grid(cfg):
        seen.append(out.parent.exists())
        return run_experiment(cfg)

    monkeypatch.setattr(harness, "run_experiment", grid)
    records = run_and_write(small_cfg(methods=("cnm",)), out)
    assert seen == [False]
    assert sorted(p.name for p in out.iterdir()) == ["records.csv", "summary.csv", "timings.csv"]
    assert len(records) == 2


class TestSharedParser:
    """`main` builds its parser on the first call only, and no call leaves
    state in it that a later call sees."""

    def test_built_once(self, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        assert main(["cluster", "--family", "g3", "--size", "4", "--method", "cnm"]) == 0
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.__wrapped__()
        assert len(built) == 4  # the counter sees a build: the parser and its three subcommands
        built.clear()
        assert main(["cluster", "--family", "g3", "--size", "4", "--method", "cnm"]) == 0
        assert built == []

    def test_no_state_carried_between_calls(self, tmp_path, capsys):
        assert main(["synth", "--family", "g3", "--sizes", "x", "--out", str(tmp_path / "bad")]) == 1
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert main(["cluster", "--family", "g3", "--size", "4", "--method", "tb", "--seed", "1"]) == 0
        assert main(["synth", "--family", "c2", "--sizes", "3", "--methods", "tb", "--probs", "0.42",
                     "--reps", "2", "--out", str(tmp_path / "explicit")]) == 0
        defaults = ["synth", "--family", "g3", "--sizes", "3"]
        assert main(defaults + ["--out", str(tmp_path / "in-process")]) == 0

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "templateclust", *defaults, "--out", str(tmp_path / "fresh")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = (tmp_path / "fresh" / "records.csv").read_bytes()
        assert (tmp_path / "in-process" / "records.csv").read_bytes() == fresh
