"""Per-layer metrics from a traced run.

The layers are the package's modules. Each function is wrapped where its
caller looks it up: the harness imports its callees by name, `template`
calls `objective` through lambdas and `steepest_descent` calls
`retract_qr` as module globals. `spectral_embedding` is wrapped both in
`harness` and in `baselines`, because the harness's spectral path reaches
it from both.

Louvain's local moving and aggregation and CNM's merge loop are private
functions, so they are not traced yet; only their callers' totals are.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from statistics import median

from derive import mean, self_time, tail
from spans import Span

PER_LAYER = (
    ("stiefel.retract_qr.calls_per_call", "count", "lower"),
    ("stiefel.retract_qr.s_per_call", "s", "lower"),
    ("stiefel.accept_ratio", "1", "higher"),
    ("stiefel.iterations_per_call", "count", "lower"),
    ("stiefel.max_iters_frac", "1", "lower"),
    ("stiefel.line_search_failed_frac", "1", "lower"),
    ("stiefel.steepest_descent.self_s_per_call", "s", "lower"),
    ("stiefel.project_tangent.s_per_call", "s", "lower"),
    ("template.objective.calls_per_iter", "count", "lower"),
    ("template.objective.s_per_call", "s", "lower"),
    ("template.euclidean_gradient.s_per_call", "s", "lower"),
    ("template.objective.dense_gflops", "GFLOP/s", "higher"),
    ("machine.gemm_gflops", "GFLOP/s", "higher"),
    ("template.kmeans.s_per_call", "s", "lower"),
    ("template.template_cluster.p50_s", "s", "lower"),
    ("template.template_cluster.tail_s", "s", "lower"),
    ("template.template_cluster.tail_pct", "%", "higher"),
    ("template.template_cluster.samples", "count", "higher"),
    ("template.final_cost_rel", "1", "lower"),
    ("baselines.spectral_embedding.calls_per_rep", "count", "lower"),
    ("baselines.spectral_embedding.s_per_call", "s", "lower"),
    ("graphs.laplacian.s_per_call", "s", "lower"),
    ("baselines.spectral_cluster.self_s_per_call", "s", "lower"),
    ("baselines.cnm_cluster.s_per_call", "s", "lower"),
    ("baselines.louvain_cluster.s_per_call", "s", "lower"),
    ("metrics.projector_distance.s_per_call", "s", "lower"),
    ("metrics.closest_orthonormal.s_per_call", "s", "lower"),
    ("metrics.adjusted_rand_index.s_per_call", "s", "lower"),
    ("synth.sample_graph.s_per_rep", "s", "lower"),
    ("harness.self_s_per_rep", "s", "lower"),
    ("harness.csv_s", "s", "lower"),
    ("dataio.load_edge_list.s", "s", "lower"),
    ("dataio.load_labels.s", "s", "lower"),
    ("dataio.model_from_ground_truth.s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("failed_frac", "1", "lower"),
)


def _descent_note(args: tuple, kwargs: dict, result) -> dict:
    trace = result[1]
    return {
        "iterations": trace.iterates_count,
        "max_iters": trace.converged_by == "max-iters",
        "line_search_failed": trace.line_search_failed,
    }


def _template_note(args: tuple, kwargs: dict, result) -> dict:
    model = args[1]
    return {"final_cost_rel": result.trace.cost_history[-1] / float((model.weights**2).sum())}


# (module, attribute, span name, note)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_and_write", "harness.run_and_write", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "aggregate", "harness.csv", None),
    ("harness", "write_records_csv", "harness.csv", None),
    ("harness", "write_summary_csv", "harness.csv", None),
    ("harness", "write_timings_csv", "harness.csv", None),
    ("harness", "sample_graph", "synth.sample_graph", None),
    ("harness", "expected_model", "synth.expected_model", None),
    ("harness", "add_model_noise", "synth.add_model_noise", None),
    ("harness", "load_edge_list", "dataio.load_edge_list", None),
    ("harness", "load_labels", "dataio.load_labels", None),
    ("harness", "model_from_ground_truth", "dataio.model_from_ground_truth", None),
    ("harness", "template_cluster", "template.template_cluster", _template_note),
    ("harness", "spectral_cluster", "baselines.spectral_cluster", None),
    ("harness", "spectral_embedding", "baselines.spectral_embedding", None),
    ("harness", "cnm_cluster", "baselines.cnm_cluster", None),
    ("harness", "louvain_cluster", "baselines.louvain_cluster", None),
    ("harness", "closest_orthonormal", "metrics.closest_orthonormal", None),
    ("harness", "projector_distance", "metrics.projector_distance", None),
    ("harness", "adjusted_rand_index", "metrics.adjusted_rand_index", None),
    ("template", "random_stiefel", "stiefel.random_stiefel", None),
    ("template", "steepest_descent", "stiefel.steepest_descent", _descent_note),
    ("template", "objective", "template.objective", None),
    ("template", "euclidean_gradient", "template.euclidean_gradient", None),
    ("template", "kmeans", "template.kmeans", None),
    ("stiefel", "project_tangent", "stiefel.project_tangent", None),
    ("stiefel", "retract_qr", "stiefel.retract_qr", None),
    ("baselines", "spectral_embedding", "baselines.spectral_embedding", None),
    ("baselines", "laplacian", "graphs.laplacian", None),
)


def targets() -> list[tuple[object, str, str, object]]:
    """TARGETS with the package's modules imported."""
    return [
        (importlib.import_module(f"templateclust.{mod}"), attr, name, note)
        for mod, attr, name, note in TARGETS
    ]


def per_layer(
    spans: list[Span],
    n: int,
    k: int,
    reps: dict[str, int],
    grids: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics over the traced grids.

    `reps` counts traced repetitions per method, `grids` the traced grids;
    `extra` carries the metrics measured outside the spans.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def per_call(name: str) -> float:
        return mean([s.duration for s in by_name[name]])

    def self_per_call(name: str) -> float:
        return mean([self_time(s.start, s.end, children[s.index]) for s in by_name[name]])

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    descents = [s.attrs for s in by_name["stiefel.steepest_descent"] if s.attrs]
    iterations = sum(d["iterations"] for d in descents)
    retractions = len(by_name["stiefel.retract_qr"])
    objective_calls = len(by_name["template.objective"])
    tb_samples = [s.duration for s in by_name["template.template_cluster"]]
    tb_tail = tail(tb_samples)
    final_costs = [s.attrs["final_cost_rel"] for s in by_name["template.template_cluster"] if s.attrs]
    all_reps = sum(reps.values())

    out = {
        "stiefel.retract_qr.calls_per_call": per(retractions, len(descents)),
        "stiefel.retract_qr.s_per_call": per_call("stiefel.retract_qr"),
        "stiefel.accept_ratio": per(iterations, retractions),
        "stiefel.iterations_per_call": per(iterations, len(descents)),
        "stiefel.max_iters_frac": mean([float(d["max_iters"]) for d in descents]),
        "stiefel.line_search_failed_frac": mean([float(d["line_search_failed"]) for d in descents]),
        "stiefel.steepest_descent.self_s_per_call": self_per_call("stiefel.steepest_descent"),
        "stiefel.project_tangent.s_per_call": per_call("stiefel.project_tangent"),
        "template.objective.calls_per_iter": per(objective_calls, iterations),
        "template.objective.s_per_call": per_call("template.objective"),
        "template.euclidean_gradient.s_per_call": per_call("template.euclidean_gradient"),
        "template.objective.dense_gflops": per(2.0 * n * n * k * objective_calls, busy("template.objective"))
        / 1e9,
        "template.kmeans.s_per_call": per_call("template.kmeans"),
        "template.template_cluster.p50_s": median(tb_samples) if tb_samples else 0.0,
        "template.template_cluster.tail_s": tb_tail.value if tb_tail else 0.0,
        "template.template_cluster.tail_pct": tb_tail.percentile if tb_tail else 0.0,
        "template.template_cluster.samples": float(len(tb_samples)),
        "template.final_cost_rel": median(final_costs) if final_costs else 0.0,
        "baselines.spectral_embedding.calls_per_rep": per(
            len(by_name["baselines.spectral_embedding"]), reps.get("spectral", 0)
        ),
        "baselines.spectral_embedding.s_per_call": per_call("baselines.spectral_embedding"),
        "graphs.laplacian.s_per_call": per_call("graphs.laplacian"),
        "baselines.spectral_cluster.self_s_per_call": self_per_call("baselines.spectral_cluster"),
        "baselines.cnm_cluster.s_per_call": per_call("baselines.cnm_cluster"),
        "baselines.louvain_cluster.s_per_call": per_call("baselines.louvain_cluster"),
        "metrics.projector_distance.s_per_call": per_call("metrics.projector_distance"),
        "metrics.closest_orthonormal.s_per_call": per_call("metrics.closest_orthonormal"),
        "metrics.adjusted_rand_index.s_per_call": per_call("metrics.adjusted_rand_index"),
        "synth.sample_graph.s_per_rep": per(busy("synth.sample_graph"), all_reps),
        "harness.self_s_per_rep": per(
            sum(self_time(s.start, s.end, children[s.index]) for s in by_name["harness.run_experiment"]),
            all_reps,
        ),
        "harness.csv_s": per(busy("harness.csv"), grids),
        "dataio.load_edge_list.s": per_call("dataio.load_edge_list"),
        "dataio.load_labels.s": per_call("dataio.load_labels"),
        "dataio.model_from_ground_truth.s": per_call("dataio.model_from_ground_truth"),
    }
    out.update(extra)
    return out
