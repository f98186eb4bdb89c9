"""Experiment runner: seeded repetitions over parameter grids, CSV output.

Each experiment sweeps parameter points (community size, coupling
probability, or noise level), repeats every point with derived seeds,
runs the requested clustering methods on the same sampled instance, and
records ARI, projector distance, iteration counts and timing.  Raw
records and mean/std summaries are written as CSV.  `instances` and
`method_rng` are the only code that builds and seeds a repetition.
"""

from __future__ import annotations

import csv
import errno
import os
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from templateclust.baselines import cnm_cluster, louvain_cluster, spectral_cluster, spectral_embedding
from templateclust.dataio import load_edge_list, load_labels, model_from_ground_truth
from templateclust.errors import InputError, NumericalError
from templateclust.graphs import Graph, count
from templateclust.metrics import (
    GroundTruth,
    Partition,
    adjusted_rand_index,
    closest_orthonormal,
    projector_distance,
)
from templateclust.stiefel import StiefelPoint
from templateclust.synth import C2_COUPLING, add_model_noise, check_sigma, expected_model, make_family, sample_graph
from templateclust.template import TemplateModel, template_cluster


def _tb(g: Graph, k: int | None, model: TemplateModel, rng: np.random.Generator) -> tuple:
    result = template_cluster(g, model, rng=rng)
    return Partition(result.partition), result.embedding, result.trace.iterates_count


# Every method, defined once: its runner, the input it cannot run without
# (none: it chooses k itself) and whether it draws from `method_rng`. A runner
# takes (graph, k, template, rng), returns (partition, embedding or None,
# iterations or None) and looks its functions up in this module when called,
# where the traced benchmark wraps them. A method's place is its stream key,
# so a new one is appended.
REGISTRY: dict[str, tuple[Callable, str | None, bool]] = {
    "tb": (_tb, "template", True),
    "spectral": (lambda g, k, t, rng: (spectral_cluster(g, k, rng), spectral_embedding(g, k), None), "k", False),
    "cnm": (lambda g, k, t, rng: (cnm_cluster(g), None, None), None, False),
    "louvain": (lambda g, k, t, rng: (louvain_cluster(g, rng), None, None), None, True),
}
METHODS = tuple(REGISTRY)
_GIVEN_BY = {"template": "--template, --labels, or --family", "k": "--k, --template, or --labels"}

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
    probs: tuple[float | None, ...] = (None,)  # None: no coupling given, which c2 reads as C2_COUPLING
    sigmas: tuple[float, ...] = (0.0,)
    intra_mode: str | None = None  # None: no shape given, which bp reads as its default
    repetitions: int = 100
    base_seed: int = 0
    fixed_graph: bool = False
    edges_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self) -> None:
        for name, least in (("repetitions", 1), ("base_seed", 0)):
            object.__setattr__(self, name, count(getattr(self, name), name, least))
        for axis in ("methods", "sizes", "probs", "sigmas"):
            if not isinstance(values := getattr(self, axis), (tuple, list)):
                raise InputError(f"{axis} must be a tuple or list, got {values!r}")
            object.__setattr__(self, axis, tuple(values))
        object.__setattr__(self, "sizes", tuple(count(size, "sizes", 1) for size in self.sizes))
        if unknown := set(self.methods) - set(REGISTRY):
            raise InputError(f"unknown methods: {sorted(unknown)}")
        if self.kind not in ("synth", "real"):
            raise InputError(f"kind must be 'synth' or 'real', got {self.kind!r}")
        for axis in ("methods", "sizes", "probs") if self.kind == "synth" else ("methods", "sigmas"):
            if not getattr(self, axis):
                raise InputError(f"{axis} must name at least one value")
        if self.kind == "real" and (self.edges_path is None or self.labels_path is None):
            raise InputError("real experiments need edge and label file paths")
        if self.kind == "synth" and self.dataset == "c2":
            object.__setattr__(self, "probs", tuple(C2_COUPLING if p is None else p for p in self.probs))
        for axis in ("sizes", "probs", "sigmas", "methods"):
            seen = set()
            for value in getattr(self, axis):
                if value in seen:
                    raise InputError(f"{axis} repeats the value {value!r}")
                seen.add(value)
        unread = {"synth": ("sigmas", "edges_path", "labels_path"),
                  "real": ("sizes", "probs", "intra_mode", "fixed_graph")}[self.kind]
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise InputError(f"{f.name} does not apply to {self.kind} experiments")


@dataclass
class ExperimentRecord:
    dataset: str
    method: str
    size: int | None
    param: float | None
    repetition: int
    seed: int
    status: str = "ok"
    ari: float | None = None
    projector_distance: float | None = None
    iterations: int | None = None
    k_found: int | None = None
    runtime_ms: float = 0.0


RECORD_COLUMNS = tuple(f.name for f in fields(ExperimentRecord) if f.name != "runtime_ms")


def _order(r: ExperimentRecord) -> tuple:
    # a size or param of None (a real grid's size, no coupling given) sorts as 0
    return r.method, r.size or 0, r.param or 0.0, r.repetition


def run_method(
    method: str, graph: Graph, k: int | None, model: TemplateModel | None, rng: np.random.Generator | None
) -> tuple[Partition, StiefelPoint | None, int | None]:
    """Cluster `graph` with one of METHODS, or raise InputError without the
    input it needs. Returns the partition, labels canonical by first
    appearance; the embedding of tb and spectral, else None; and tb's descent
    iteration count, else None."""
    if method not in REGISTRY:
        raise InputError(f"unknown method {method!r}")
    run, needs, _ = REGISTRY[method]
    if needs is not None and {"template": model, "k": k}[needs] is None:
        raise InputError(f"method {method} needs {_GIVEN_BY[needs]}")
    return run(graph, k, model, rng)


def method_rng(seed: int, point_idx: int, rep: int, method: str) -> np.random.Generator | None:
    """The stream `method` draws from at repetition `rep` of point
    `point_idx`, seeded by that place and the method's index in METHODS;
    None for a method that draws nothing."""
    *_, draws = REGISTRY[method]
    return np.random.default_rng((seed, point_idx, rep, METHODS.index(method))) if draws else None


def instances(
    cfg: ExperimentConfig,
) -> Iterator[tuple[int | None, float | None, int, int, Graph, GroundTruth, StiefelPoint, TemplateModel]]:
    """Yield (size, param, point_idx, rep, graph, truth, frame, template) for
    every repetition of the grid, with `frame` the truth's closest orthonormal
    frame: synth samples each graph from its family (once per point under
    `fixed_graph`) and uses the expected-value template; real loads the files
    once and adds template noise per repetition.

    A point's truth, frame and template are built before its first graph is
    sampled, and a repetition's graph is let go before the next is sampled
    (the caller must let go of it too), so a repetition's arrays can reuse
    the memory the last one freed."""
    if cfg.kind == "synth":
        points = [(size, prob) for size in cfg.sizes for prob in cfg.probs]
        specs = [make_family(cfg.dataset, size, prob, cfg.intra_mode) for size, prob in points]  # all checked first
        for point_idx, ((size, prob), spec) in enumerate(zip(points, specs)):
            model, frame = expected_model(spec), closest_orthonormal(spec.truth)
            # a fixed graph is sampled once, so its repetitions share its factors
            fixed = sample_graph(spec, np.random.default_rng((cfg.base_seed, point_idx))) if cfg.fixed_graph else None
            for rep in range(cfg.repetitions):
                graph, gt = fixed or sample_graph(spec, np.random.default_rng((cfg.base_seed, point_idx, rep)))
                yield size, prob, point_idx, rep, graph, gt, frame, model
                del graph
    else:
        for sigma in cfg.sigmas:  # all checked first
            check_sigma(sigma)
        graph, id_map = load_edge_list(cfg.edges_path)
        gt = load_labels(cfg.labels_path, graph.n, id_map)
        base_model, frame = model_from_ground_truth(graph, gt), closest_orthonormal(gt)
        for point_idx, sigma in enumerate(cfg.sigmas):
            for rep in range(cfg.repetitions):
                noise_rng = np.random.default_rng((cfg.base_seed, point_idx, rep, 997))
                model = add_model_noise(base_model, sigma, noise_rng)
                yield None, sigma, point_idx, rep, graph, gt, frame, model


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Execute the full grid. A method that raises InputError or
    NumericalError on a repetition gives a failed row and the run goes on;
    any other exception is a fault in the program and propagates. Each
    method draws from `method_rng`, so its rows do not depend on the others."""
    records: list[ExperimentRecord] = []
    for size, param, point_idx, rep, graph, gt, frame, model in instances(cfg):
        for method in cfg.methods:
            rec = ExperimentRecord(cfg.dataset, method, size, param, rep, cfg.base_seed + rep)
            rng = method_rng(cfg.base_seed, point_idx, rep, method)
            start = time.perf_counter()
            try:
                partition, embedding, iters = run_method(method, graph, gt.k, model, rng)
                ari = adjusted_rand_index(partition.labels, gt.labels)
                pd = None if embedding is None else projector_distance(embedding, frame)
                rec.ari, rec.projector_distance, rec.iterations = ari, pd, iters
                rec.k_found = partition.k_found
            except (InputError, NumericalError):
                rec.status = "failed"
            rec.runtime_ms = (time.perf_counter() - start) * 1000.0
            records.append(rec)
        del graph  # see `instances`
    records.sort(key=_order)
    return records


def aggregate(records: list[ExperimentRecord]) -> list[dict[str, object]]:
    """Mean and unbiased std per (dataset, method, size, param); failed
    rows are excluded from the statistics and counted."""
    if not records:
        raise InputError("no records to aggregate")
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for r in sorted(records, key=_order):
        groups.setdefault((r.dataset, r.method, r.size, r.param), []).append(r)

    def stats(values: list[float | None]) -> tuple[float | None, float | None]:
        values = [v for v in values if v is not None]
        if not values:
            return None, None
        return float(np.mean(values)), float(np.std(values, ddof=1)) if len(values) > 1 else 0.0

    rows = []
    for key, group in groups.items():
        ok = [r for r in group if r.status == "ok"]
        ari, pd = stats([r.ari for r in ok]), stats([r.projector_distance for r in ok])
        rows.append(dict(zip(SUMMARY_COLUMNS, (*key, len(group), len(group) - len(ok), *ari, *pd))))
    return rows


def _write_csv(path: str | Path, columns: tuple[str, ...], rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)  # None as "", the rest by str


def write_records_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    """Raw per-repetition rows. Runtime is deliberately excluded so reruns
    with the same seed are byte-identical; timings go to a separate file."""
    _write_csv(path, RECORD_COLUMNS, map(vars, records))


def write_summary_csv(rows: list[dict[str, object]], path: str | Path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def write_timings_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    _write_csv(path, TIMING_COLUMNS, map(vars, records))


def run_and_write(cfg: ExperimentConfig, out_dir: str | Path) -> list[ExperimentRecord]:
    """Run the grid, then make `out_dir` and write its three CSVs there, so
    a grid that fails makes no directory. An `out_dir` that is a file, or
    lies under one (its nearest existing ancestor is not a directory), is
    rejected before the first repetition, with mkdir's message, by a check
    that makes nothing."""
    out = Path(out_dir)
    for path in (out, *out.parents):
        if os.path.exists(path):
            if not os.path.isdir(path):
                reason = os.strerror(errno.EEXIST if path == out else errno.ENOTDIR)
                raise InputError(f"{out}: cannot make the output directory: {reason}")
            break
    records = run_experiment(cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"{out}: cannot make the output directory: {exc.strerror}") from None
    write_records_csv(records, out / "records.csv")
    write_summary_csv(aggregate(records), out / "summary.csv")
    write_timings_csv(records, out / "timings.csv")
    return records
