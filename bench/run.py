"""Benchmark of templateclust's experiment grids, end to end and per layer.

    python3 bench/run.py --workload c2-small --seed 0 --seconds 30 --trace 0

Runs the documented CLI in-process (`templateclust.cli.main`), one grid per
method, and times each grid from outside. The methods' grids are interleaved
over the run, and each method's first grid is run again at the end: its
records.csv must come out byte-identical. With `--trace 0` it prints the
end-to-end metrics, with `--trace 1` the per-layer metrics from spans
recorded around the package's functions. The last line of standard output is
one JSON object; the exit code is 0 only when every output check passed.

Timings are corrected for the machine's speed. A shared 2-core Xeon
(OpenBLAS, one thread) alternates between a fast state and one about 1.6x
slower, each lasting seconds to a minute, which moved raw grid times by up to
45% between runs of one seed. A fixed probe is timed before and after every grid, and the grid's
wall time is scaled by the probe's time in the fast state over its mean time
around the grid, so a grid run in the slow state counts as if run in the fast
one. tb grids are scaled by the probe's BLAS part at the workload's size, the
baselines' grids by its interpreter part. Raw wall-clock throughputs are
printed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from derive import GridOutcome, account, failed_frac, mean
from layers import PER_LAYER, per_layer, targets
from spans import Tracer
from workloads import METHODS, WORKLOADS, Workload, write_graph_files

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# One BLAS thread: on a shared 2-core machine the first multi-threaded LAPACK
# call in a process once took 0.7 s, and threads add contention noise.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 5  # this process's set-up plus four more in fresh processes
GEMM_FLOPS = 2e8  # fixed work of the machine-peak measurement
PYTHON_PROBE_REFERENCE_S = 0.0070  # the "python" probe's time in the fast state

END_TO_END = (
    ("setup_s", "s"),
    *((f"{m}_reps_per_s", "reps/s") for m in METHODS),
    *((f"{m}_ari", "1") for m in METHODS),
    ("tb_pd", "1"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    pass


def probe(workload: Workload) -> dict[str, float]:
    """Seconds taken by two kinds of fixed work: "python", small numpy calls
    in a Python loop, as the baselines and the descent's bookkeeping do; and
    "blas", a thin QR and a matrix product at the workload's n and k, as the
    descent's products do. A slow machine state slows them unequally."""
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 160).reshape(40, 4) + np.eye(40, 4)
    acc = 0.0
    for i in range(300):
        q, _ = np.linalg.qr(x)
        acc += float((x.T @ q).sum())
        acc += sum({j: j * i for j in range(20)}.values())
    middle = time.perf_counter()
    n, k = workload.n, workload.k
    a = np.linspace(0.0, 1.0, n * n).reshape(n, n)
    x = np.linspace(0.0, 1.0, n * k).reshape(n, k) + np.eye(n, k)
    for _ in range(workload.probe_reps):
        q, _ = np.linalg.qr(x)
        acc += float((a @ q).sum())
    return {"python": middle - start, "blas": time.perf_counter() - middle}


def set_up(workload: Workload, seed: int, inputs: Path) -> tuple[float, dict[str, object]]:
    """Import the package from this checkout, warm BLAS/LAPACK up at the
    workload's size and write its input files. Returns the seconds taken,
    scaled to the probe's reference speed, and the machine's measurements."""
    start = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import templateclust.cli
    except ImportError as exc:
        raise SetupError(f"cannot import templateclust from {ROOT / 'src'}: {exc}") from exc
    if not Path(templateclust.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"templateclust imported from {templateclust.cli.__file__}, not this checkout")

    rng = np.random.default_rng(seed)
    n, k = workload.n, workload.k
    a = rng.random((n, n))
    np.linalg.eigh(a + a.T)
    p = rng.random((n, k))
    np.linalg.qr(p)

    batch = max(1, round(GEMM_FLOPS / (2.0 * n * n * k) / 5))
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(batch):
            a @ p
        best = min(best, time.perf_counter() - t)

    write_graph_files(workload, seed, inputs)
    elapsed = time.perf_counter() - start

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    machine = {
        "gemm_gflops": 2.0 * n * n * k * batch / best / 1e9,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpus": len(os.sched_getaffinity(0)),
    }
    return elapsed * PYTHON_PROBE_REFERENCE_S / probe(workload)["python"], machine


def setup_in_fresh_process(args: argparse.Namespace, inputs: Path) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--setup-only", str(inputs),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class GridRun:
    method: str
    grid: int
    role: str  # "warm-up" (traced runs only), "measure" or "rerun"
    traced: bool
    wall: float = 0.0
    scaled_wall: float = 0.0  # wall at the probe's reference speed
    outcome: GridOutcome | None = None
    records: bytes = b""
    rows: list[dict[str, str]] = field(default_factory=list)

    @property
    def ok_rows(self) -> list[dict[str, str]]:
        return [row for row in self.rows if row["status"] == "ok"]


def schedule(workload: Workload, seconds: float, trace: bool) -> list[GridRun]:
    """Every method's grids spread evenly over the run, then each method's
    grid 0 again. A traced run traces the measured grids and also runs each
    grid 0 untraced first, as a warm-up."""
    counts = {m: workload.grid_count(m, seconds) for m in METHODS}
    spread = sorted(
        ((g + 0.5) / counts[m], i, m, g) for i, m in enumerate(METHODS) for g in range(counts[m])
    )
    runs = [GridRun(m, g, "measure", trace) for _, _, m, g in spread]
    runs += [GridRun(m, 0, "rerun", False) for m in METHODS]
    if trace:
        runs = [GridRun(m, 0, "warm-up", False) for m in METHODS] + runs
    return runs


def run_grid(args: list[str]) -> tuple[int, float]:
    import templateclust.cli as cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter() - start


def check_grid(run: GridRun, k: int, errors: list[str]) -> None:
    where = f"{run.method} grid {run.grid} ({run.role})"
    if run.outcome.exit_code != 0:
        errors.append(f"{where}: exit code {run.outcome.exit_code}")
        return
    if len(run.rows) != run.outcome.expected_rows:
        errors.append(f"{where}: {len(run.rows)} rows, expected {run.outcome.expected_rows}")
    for row in run.rows:
        if row["method"] != run.method or row["status"] not in ("ok", "failed"):
            errors.append(f"{where}: unexpected row {row}")
            continue
        if row["status"] != "ok":
            continue
        ari = float(row["ari"])
        if not -1.0 <= ari <= 1.0:
            errors.append(f"{where}: ARI {ari} outside [-1, 1]")
        if run.method in ("tb", "spectral"):
            pd = float(row["projector_distance"])
            if not 0.0 <= pd <= 2.0 * k:
                errors.append(f"{where}: projector distance {pd} outside [0, {2 * k}]")
        if run.method == "tb" and not row["iterations"].isdigit():
            errors.append(f"{where}: tb row without an iteration count")


def run_all(
    runs: list[GridRun], workload: Workload, seed: int, inputs: Path, work: Path, tracer, errors: list[str]
) -> None:
    wraps = targets() if tracer is not None else None
    before = probe(workload)
    for i, run in enumerate(runs):
        out = work / f"grid-{i}"
        args = workload.grid_args(run.method, run.grid, seed, inputs, out)
        if run.traced:
            tracer.trace_id = i
            with tracer.installed(wraps):
                code, run.wall = run_grid(args)
        else:
            code, run.wall = run_grid(args)
        after = probe(workload)
        kind = "blas" if run.method == "tb" else "python"
        reference = workload.blas_probe_reference_s if kind == "blas" else PYTHON_PROBE_REFERENCE_S
        run.scaled_wall = run.wall * reference / ((before[kind] + after[kind]) / 2.0)
        before = after

        path = out / "records.csv"
        run.records = path.read_bytes() if code == 0 and path.exists() else b""
        run.rows = list(csv.DictReader(io.StringIO(run.records.decode("utf-8"))))
        failed = sum(row["status"] != "ok" for row in run.rows)
        run.outcome = GridOutcome(workload.plan[run.method].reps, code, failed)
        check_grid(run, workload.k, errors)
        shutil.rmtree(out, ignore_errors=True)
    for method in METHODS:
        if len({r.records for r in runs if r.method == method and r.grid == 0}) != 1:
            errors.append(f"{method}: records.csv of grid 0 differs between runs at one seed")


def end_to_end(runs: list[GridRun], setup_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the raw wall-clock throughputs.

    A method's throughput is its completed repetitions over the time of all
    its grids, reruns included.
    """
    metrics, raw = {"setup_s": setup_s}, {}
    for m in METHODS:
        own = [r for r in runs if r.method == m]
        done = sum(len(r.ok_rows) for r in own)
        metrics[f"{m}_reps_per_s"] = done / sum(r.scaled_wall for r in own)
        raw[f"{m}_reps_per_s"] = done / sum(r.wall for r in own)
    for m in METHODS:
        rows = [row for r in runs if r.method == m and r.role == "measure" for row in r.ok_rows]
        metrics[f"{m}_ari"] = mean([float(row["ari"]) for row in rows])
        if m == "tb":
            metrics["tb_pd"] = mean([float(row["projector_distance"]) for row in rows])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, raw


def traced_layers(
    tracer, runs: list[GridRun], workload: Workload, machine: dict, errors: list[str]
) -> dict[str, float]:
    traced = [r for r in runs if r.traced]
    reps = {m: sum(r.outcome.expected_rows for r in traced if r.method == m) for m in METHODS}
    # each grid 0 traced against the mean of its untraced warm-up and rerun
    traced_0 = sum(r.scaled_wall for r in traced if r.grid == 0)
    untraced_0 = sum(r.scaled_wall for r in runs if not r.traced and r.grid == 0) / 2.0
    metrics = per_layer(
        tracer.spans, workload.n, workload.k, reps, len(traced),
        {
            "machine.gemm_gflops": machine["gemm_gflops"],
            "trace.overhead_frac": traced_0 / untraced_0 - 1.0,
            "failed_frac": failed_frac(r.outcome for r in runs),
        },
    )
    # the traced descents must be the ones that wrote the tb rows
    tb_iterations = sorted(int(row["iterations"]) for r in traced if r.method == "tb" for row in r.ok_rows)
    descents = sorted(
        s.attrs["iterations"]
        for s in tracer.spans
        if s.name == "stiefel.steepest_descent" and s.attrs and not tracer.spans[s.parent].failed
    )
    if tb_iterations != descents:
        errors.append("traced descent iterations differ from the tb rows of records.csv")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        try:
            elapsed, _ = set_up(workload, args.seed, Path(args.setup_only))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"setup_s": elapsed}))
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    errors: list[str] = []
    try:
        inputs = work / "inputs"
        elapsed, machine = set_up(workload, args.seed, inputs)
        samples = [elapsed]
        for i in range(SETUP_SAMPLES - 1):
            samples.append(setup_in_fresh_process(args, work / f"setup-{i}"))
        print("env: " + json.dumps({k: v for k, v in machine.items() if k != "gemm_gflops"}))

        tracer = Tracer() if args.trace else None
        runs = schedule(workload, args.seconds, bool(args.trace))
        run_all(runs, workload, args.seed, inputs, work, tracer, errors)
        attempted, failed = account(r.outcome for r in runs)
        if args.trace:
            values = traced_layers(tracer, runs, workload, machine, errors)
            units = {name: unit for name, unit, _ in PER_LAYER}
            tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz")
        else:
            values, raw = end_to_end(runs, median(samples))
            units = dict(END_TO_END)
            for name, value in raw.items():
                print(f"raw wall-clock {name} {value!r} reps/s")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
