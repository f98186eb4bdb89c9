"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload g6-mid --seeds 0-9 --seconds 30

Spread is the distance between the first and third quartile of a metric's
values, as `statistics.quantiles(values, n=4)` gives them, as a share of
their median; a benchmark is steady when every spread stays well under the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", args.seconds, "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        bound = bounds.get(name)
        med = statistics.median(vals)
        s = spread(vals) if len(vals) > 1 and med else float("nan")
        print(f"{name:48s} median {med:<12.6g} spread {s:8.4f} bound {bound}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
