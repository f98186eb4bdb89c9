"""In-memory span recording around the package's public functions.

A span is (name, start, end, parent) plus the grid it belongs to. Spans are
recorded by replacing a function at the module attribute where its caller
looks it up, so nothing in the package changes; `installed` puts the
originals back when it exits.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from pathlib import Path
from typing import Any, Callable, Iterator

# (args, kwargs, result) -> attributes to keep on the span
Note = Callable[[tuple, dict, Any], dict]


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "trace_id", "failed", "attrs")

    def __init__(self, index: int, name: str, start: float, parent: int, trace_id: int) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, -1 at the root
        self.trace_id = trace_id
        self.failed = False
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0  # set by the caller to the grid being run
        self._clock = clock
        self._stack: list[int] = []

    def traced(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, clock(), stack[-1] if stack else -1, self.trace_id)
            spans.append(span)
            stack.append(span.index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[tuple[object, str, str, Note | None]]) -> Iterator[None]:
        """Wrap each (module, attribute, span name, note) for the duration."""
        originals = []
        try:
            for owner, attr, name, note in targets:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.traced(fn, name, note))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """Gzipped tab-separated spans in start order; times in integer
        nanoseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\ttrace_id\tparent\tname\tstart_ns\tend_ns\tfailed\n")
            for s in self.spans:
                start, end = round((s.start - t0) * 1e9), round((s.end - t0) * 1e9)
                fh.write(f"{s.index}\t{s.trace_id}\t{s.parent}\t{s.name}\t{start}\t{end}\t{int(s.failed)}\n")
