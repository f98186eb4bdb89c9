"""Experiment runner: seeded repetitions over parameter grids, CSV output.

Each experiment sweeps parameter points (community size, coupling
probability, or noise level), repeats every point with derived seeds,
runs the requested clustering methods on the same sampled instance, and
records ARI, projector distance, iteration counts and timing.  Raw
records and mean/std summaries are written as CSV.
"""

from __future__ import annotations

import csv
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from templateclust.baselines import (
    Partition,
    cnm_cluster,
    louvain_cluster,
    spectral_cluster,
    spectral_embedding,
)
from templateclust.dataio import load_edge_list, load_labels, model_from_ground_truth
from templateclust.errors import InputError
from templateclust.graphs import Graph
from templateclust.metrics import (
    GroundTruth,
    adjusted_rand_index,
    closest_orthonormal,
    projector_distance,
)
from templateclust.stiefel import StiefelPoint
from templateclust.synth import C2_COUPLING, add_model_noise, expected_model, make_family, sample_graph
from templateclust.template import TemplateModel, template_cluster

METHODS = ("tb", "spectral", "cnm", "louvain")

RECORD_COLUMNS = (
    "dataset",
    "method",
    "size",
    "param",
    "repetition",
    "seed",
    "status",
    "ari",
    "projector_distance",
    "iterations",
    "k_found",
)

SUMMARY_COLUMNS = (
    "dataset",
    "method",
    "size",
    "param",
    "repetitions",
    "failures",
    "ari_mean",
    "ari_std",
    "pd_mean",
    "pd_std",
)

TIMING_COLUMNS = ("dataset", "method", "size", "param", "repetition", "runtime_ms")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str  # synth | real
    dataset: str  # family name (g3|g6|c2|bp) or dataset label
    methods: tuple[str, ...] = METHODS
    sizes: tuple[int, ...] = ()
    probs: tuple[float, ...] = (float("nan"),)  # NaN: none given, which c2 reads as C2_COUPLING
    sigmas: tuple[float, ...] = (0.0,)
    intra_mode: str = "bipartite"
    repetitions: int = 100
    base_seed: int = 0
    fixed_graph: bool = False
    edges_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise InputError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise InputError(f"seed must be >= 0, got {self.base_seed}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise InputError(f"unknown methods: {sorted(unknown)}")
        if self.kind not in ("synth", "real"):
            raise InputError(f"kind must be 'synth' or 'real', got {self.kind!r}")
        for axis in ("methods", "sizes", "probs") if self.kind == "synth" else ("methods", "sigmas"):
            if not getattr(self, axis):
                raise InputError(f"{axis} must name at least one value")
        if self.kind == "real" and (self.edges_path is None or self.labels_path is None):
            raise InputError("real experiments need edge and label file paths")
        if self.kind == "synth" and self.dataset == "c2":
            object.__setattr__(self, "probs", tuple(C2_COUPLING if p != p else p for p in self.probs))
        for axis in ("sizes", "probs", "sigmas", "methods"):
            seen = set()
            for value in getattr(self, axis):
                if (key := None if value != value else value) in seen:  # NaN repeats NaN
                    raise InputError(f"{axis} repeats the value {value!r}")
                seen.add(key)


@dataclass
class ExperimentRecord:
    dataset: str
    method: str
    size: int | None
    param: float
    repetition: int
    seed: int
    status: str = "ok"
    ari: float | None = None
    projector_distance: float | None = None
    iterations: int | None = None
    k_found: int | None = None
    runtime_ms: float = 0.0


def _fmt(x: object) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if x != x:  # NaN parameter placeholder
            return ""
        return repr(x)
    return str(x)


def run_method(
    method: str,
    graph: Graph,
    k: int | None,
    model: TemplateModel | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, StiefelPoint | None, int | None]:
    """Cluster `graph` with one of METHODS.

    Returns the labels, canonical by first appearance; the embedding of tb
    and spectral, else None; and tb's descent iteration count, else None.
    tb needs `model`, spectral needs `k`.
    """
    if method == "tb":
        if model is None:
            raise InputError("method tb needs --template, --labels, or --family")
        result = template_cluster(graph, model, rng=rng)
        return Partition(result.partition).labels, result.embedding, result.trace.iterates_count
    if method == "spectral":
        if k is None:
            raise InputError("method spectral needs --k, --template, or --labels")
        return spectral_cluster(graph, k, rng).labels, spectral_embedding(graph, k), None
    if method == "cnm":
        return cnm_cluster(graph).labels, None, None
    if method == "louvain":
        return louvain_cluster(graph, rng).labels, None, None
    raise InputError(f"unknown method {method!r}")


def _instances(
    cfg: ExperimentConfig,
) -> Iterator[tuple[int | None, float, int, int, Graph, GroundTruth, TemplateModel]]:
    """Yield (size, param, point_idx, rep, graph, truth, template) for every
    repetition of the grid: synth samples each graph from its family (once per
    point under `fixed_graph`) and uses the expected-value template; real
    loads the files once and adds template noise per repetition."""
    if cfg.kind == "synth":
        points = [(size, prob) for size in cfg.sizes for prob in cfg.probs]
        for point_idx, (size, prob) in enumerate(points):
            spec = make_family(cfg.dataset, size, prob, cfg.intra_mode)
            model = expected_model(spec)
            # a fixed graph is sampled once, so its repetitions share its factors
            fixed = sample_graph(spec, np.random.default_rng((cfg.base_seed, point_idx))) if cfg.fixed_graph else None
            for rep in range(cfg.repetitions):
                graph, gt = fixed or sample_graph(spec, np.random.default_rng((cfg.base_seed, point_idx, rep)))
                yield size, prob, point_idx, rep, graph, gt, model
    else:
        graph, id_map = load_edge_list(cfg.edges_path)
        gt = load_labels(cfg.labels_path, graph.n, id_map)
        base_model = model_from_ground_truth(graph, gt)
        for point_idx, sigma in enumerate(cfg.sigmas):
            for rep in range(cfg.repetitions):
                noise_rng = np.random.default_rng((cfg.base_seed, point_idx, rep, 997))
                model = add_model_noise(base_model, sigma, noise_rng)
                yield None, sigma, point_idx, rep, graph, gt, model


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Execute the full grid; per-repetition method failures become failed
    rows rather than aborting the run."""
    records: list[ExperimentRecord] = []
    for size, param, point_idx, rep, graph, gt, model in _instances(cfg):
        for m_idx, method in enumerate(cfg.methods):
            rec = ExperimentRecord(cfg.dataset, method, size, param, rep, cfg.base_seed + rep)
            rng = np.random.default_rng((cfg.base_seed, point_idx, rep, m_idx))
            start = time.perf_counter()
            try:
                labels, embedding, iters = run_method(method, graph, gt.k, model, rng)
                ari = adjusted_rand_index(labels, gt.labels)
                pd = None
                if embedding is not None:
                    pd = projector_distance(embedding, closest_orthonormal(gt.indicator()))
                rec.ari, rec.projector_distance, rec.iterations = ari, pd, iters
                rec.k_found = int(labels.max()) + 1
            except Exception:
                rec.status = "failed"
            rec.runtime_ms = (time.perf_counter() - start) * 1000.0
            records.append(rec)
    records.sort(key=lambda r: (r.method, r.size or 0, r.param, r.repetition))
    return records


def aggregate(records: list[ExperimentRecord]) -> list[dict[str, object]]:
    """Mean and unbiased std per (dataset, method, size, param); failed
    rows are excluded from the statistics and counted."""
    if not records:
        raise InputError("no records to aggregate")
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for r in sorted(records, key=lambda r: (r.method, r.size or 0, r.param, r.repetition)):
        groups.setdefault((r.dataset, r.method, r.size, r.param), []).append(r)

    def stats(values: list[float]) -> tuple[float | None, float | None]:
        if not values:
            return None, None
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return mean, std

    rows = []
    for (dataset, method, size, param), group in groups.items():
        ok = [r for r in group if r.status == "ok"]
        ari_mean, ari_std = stats([r.ari for r in ok if r.ari is not None])
        pd_mean, pd_std = stats(
            [r.projector_distance for r in ok if r.projector_distance is not None]
        )
        rows.append(
            {
                "dataset": dataset,
                "method": method,
                "size": size,
                "param": param,
                "repetitions": len(group),
                "failures": len(group) - len(ok),
                "ari_mean": ari_mean,
                "ari_std": ari_std,
                "pd_mean": pd_mean,
                "pd_std": pd_std,
            }
        )
    return rows


def _write_csv(path: str | Path, columns: tuple[str, ...], rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def write_records_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    """Raw per-repetition rows. Runtime is deliberately excluded so reruns
    with the same seed are byte-identical; timings go to a separate file."""
    _write_csv(path, RECORD_COLUMNS, map(vars, records))


def write_summary_csv(rows: list[dict[str, object]], path: str | Path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_timings_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    _write_csv(path, TIMING_COLUMNS, map(vars, records))


def run_and_write(cfg: ExperimentConfig, out_dir: str | Path) -> list[ExperimentRecord]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_experiment(cfg)
    write_records_csv(records, out / "records.csv")
    write_summary_csv(aggregate(records), out / "summary.csv")
    write_timings_csv(records, out / "timings.csv")
    return records
