"""Pure derivations the benchmark reports: self time, the tail rule,
failure accounting. No numpy, so they are tested on hand-built inputs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

TAIL_BEYOND = 10


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its children cover;
    overlapping children are counted once."""
    return (end - start) - covered(start, end, children)


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int


def tail(samples: Sequence[float]) -> Tail | None:
    """The highest percentile with at least ten samples beyond it.

    With N samples sorted ascending that is the (N-10)-th, at percentile
    100 (N-10)/N; below eleven samples there is none.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return Tail(sorted(samples)[rank - 1], 100.0 * rank / n, n)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for no values, as when a layer was never called."""
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class GridOutcome:
    """Rows a grid should have written, and what it did write."""

    expected_rows: int
    exit_code: int
    failed_rows: int  # rows with status=failed in records.csv


def account(outcomes: Iterable[GridOutcome]) -> tuple[int, int]:
    """(attempted, failed) rows over grids. A grid that exits nonzero
    counts every row it should have written as failed."""
    attempted = failed = 0
    for o in outcomes:
        attempted += o.expected_rows
        failed += o.expected_rows if o.exit_code != 0 else min(o.failed_rows, o.expected_rows)
    return attempted, failed


def failed_frac(outcomes: Iterable[GridOutcome]) -> float:
    attempted, failed = account(outcomes)
    return failed / attempted if attempted else 0.0
