import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from templateclust import TemplateModel, build_graph
from templateclust.cli import main
from templateclust.errors import InputError
from templateclust.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentRecord,
    aggregate,
    run_and_write,
    run_experiment,
    run_method,
)
from templateclust.synth import C2_COUPLING, make_g3, sample_graph


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
        nan = float("nan")
        assert small_cfg(dataset="c2").probs == (C2_COUPLING,)
        assert small_cfg(dataset="c2", probs=(0.3, nan)).probs == (0.3, C2_COUPLING)
        assert np.isnan(small_cfg(dataset="g3").probs).all()

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(sizes=(4, 5, 4)), "sizes repeats the value 4"),
            (dict(probs=(float("nan"), float("nan"))), "probs repeats the value nan"),
            (dict(dataset="c2", probs=(0.3, 0.3)), "probs repeats the value 0.3"),
            (dict(dataset="c2", probs=(0.42, float("nan"))), "probs repeats the value 0.42"),
            (dict(methods=("louvain", "cnm", "louvain")), "methods repeats the value 'louvain'"),
            (
                dict(kind="real", sigmas=(0.0, 5.0, 0.0), edges_path="e.txt", labels_path="l.txt"),
                "sigmas repeats the value 0.0",
            ),
        ],
        ids=["sizes", "probs-nan", "probs", "c2-default-given", "methods", "sigmas"],
    )
    def test_repeated_grid_value_rejected(self, kw, message):
        # a repeated point would write rows with the same key but different results
        with pytest.raises(InputError, match=f"^{message}$"):
            small_cfg(**kw)


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
        labels, _, _ = run_method(method, build_graph(edges, 7), 2, model, np.random.default_rng(0))
        assert labels.shape == (7,)
        assert labels.min() == 0 and labels.max() < 7
        assert labels[0] == labels[1] == labels[2] and labels[3] == labels[4] == labels[5]


class TestRealExperiment:
    def test_synthetic_files(self, tmp_path):
        # write a tiny two-community graph and labels, run the real pipeline
        edges = tmp_path / "edges.txt"
        labels = tmp_path / "labels.txt"
        lines = []
        for i in range(4):
            for j in range(i + 1, 4):
                lines.append(f"{i} {j}\n")
        for i in range(4, 8):
            for j in range(i + 1, 8):
                lines.append(f"{i} {j}\n")
        lines.append("0 4\n")
        edges.write_text("".join(lines))
        labels.write_text("".join(f"{i} {0 if i < 4 else 1}\n" for i in range(8)))
        cfg = ExperimentConfig(
            kind="real",
            dataset="toy",
            methods=("tb", "louvain"),
            sigmas=(0.0, 0.5),
            repetitions=2,
            base_seed=1,
            edges_path=str(edges),
            labels_path=str(labels),
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


# records.csv of the pure-Python baselines on two fixed grids; spectral and
# tb are left out because their rows depend on the BLAS build
BASELINE_RECORDS = {
    "g6": (
        ["--family", "g6", "--sizes", "10"],
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
    "c2": (
        ["--family", "c2", "--sizes", "5", "--probs", "0.42"],
        """\
dataset,method,size,param,repetition,seed,status,ari,projector_distance,iterations,k_found
c2,cnm,5,0.42,0,17,ok,0.6779661016949152,,,3
c2,cnm,5,0.42,1,18,ok,0.6149545772187281,,,3
c2,cnm,5,0.42,2,19,ok,0.6779661016949152,,,3
c2,louvain,5,0.42,0,17,ok,0.6779661016949152,,,3
c2,louvain,5,0.42,1,18,ok,0.6149545772187281,,,3
c2,louvain,5,0.42,2,19,ok,0.6077621800165153,,,4
""",
    ),
}


@pytest.mark.parametrize("family", sorted(BASELINE_RECORDS))
def test_baseline_records_unchanged(tmp_path, family):
    grid, expected = BASELINE_RECORDS[family]
    argv = ["synth", *grid, "--methods", "cnm,louvain", "--reps", "3", "--seed", "17"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "records.csv").read_text(encoding="utf-8") == expected


def test_c2_without_probs_writes_its_coupling(tmp_path):
    base = ["synth", "--family", "c2", "--sizes", "5", "--reps", "1", "--methods", "cnm"]
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    assert main(base + ["--probs", "0.42", "--out", str(tmp_path / "given")]) == 0
    records = (tmp_path / "default" / "records.csv").read_text(encoding="utf-8")
    assert records.splitlines()[1].startswith("c2,cnm,5,0.42,0,0,ok,")
    for name in ("records.csv", "summary.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "given" / name).read_bytes()


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
            (["synth", "--family", "c2", "--sizes", "4", "--probs", "0.42,nan"], "probs repeats the value 0.42"),
            (["synth", "--family", "g3", "--sizes", "4", "--probs", "nan,nan"], "probs repeats the value nan"),
            (["synth", "--family", "g3", "--sizes", "4", "--methods", "louvain,louvain"], "methods repeats"),
            (["real", "--edges", "e.txt", "--labels", "l.txt", "--sigma-list", "0,0"], "sigmas repeats"),
        ],
        ids=["sizes", "c2-probs", "probs-nan", "methods", "sigmas"],
    )
    def test_repeated_grid_value_exit_code(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--reps", "2", "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--family", "g3", "--sizes", "4", "--seed", "-1"], "error: seed must be >= 0, got -1"),
            (["cluster", "--family", "g3", "--size", "4", "--seed", "-1"], "error: --seed must be >= 0, got -1"),
            (["real", "--sigma-list", "nan", "--methods", "cnm"], "error: sigma must be >= 0, got nan"),
        ],
        ids=["synth-seed", "cluster-seed", "real-sigma"],
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

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_cluster_k_below_one_exit_code(self, capsys, k):
        rc = main(["cluster", "--family", "g3", "--size", "4", "--method", "spectral", "--k", k])
        assert rc == 1
        assert f"--k must be >= 1, got {k}" in capsys.readouterr().err

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
    @pytest.mark.parametrize("k", ["2", "3"])
    def test_cluster_modularity_method_rejects_k(self, capsys, method, k):
        rc = main(["cluster", "--family", "g3", "--size", "10", "--k", k, "--method", method])
        assert rc == 1
        assert f"--k does not apply to {method}: it chooses the number of communities itself" in (
            capsys.readouterr().err
        )

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
            [sys.executable, *warning_flags, "-m", "templateclust.cli", *args],
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
        assert "need n >= k" in capsys.readouterr().err

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
        assert "template.txt: malformed template file" in capsys.readouterr().err

    def test_cluster_template_hash_after_data_exit_code(self, tmp_path, capsys):
        # a '#' after a row's numbers is malformed, as in edge and label files
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
        template = tmp_path / "template.txt"
        template.write_text("6 0 # intra\n0 6\n")
        assert main(["cluster", "--edges", str(edges), "--template", str(template)]) == 1
        assert capsys.readouterr().err == f"error: {template}: malformed template file\n"

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
