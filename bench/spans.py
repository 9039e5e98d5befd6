"""In-memory spans around the package's public entry points.

The tracer wraps module attributes from outside the package (``src/`` is not
edited): every call through a wrapped name records a span with its name,
start, end, parent span and job id.  Spans stay in memory until the run
writes them out.  A layer's self time is its spans' durations minus the part
of each span that its child spans cover.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    peak_bytes: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self.track_memory = False  # tracemalloc peak per span; set only while tracemalloc runs
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.job, parent, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        if self.track_memory:
            tracemalloc.reset_peak()
            span.peak_bytes = -tracemalloc.get_traced_memory()[0]
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.track_memory:
            span.peak_bytes += tracemalloc.get_traced_memory()[1]
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(result, *args)`` returns the span's counts."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if count is not None:
            span.counts = count(result, *args, **kwargs)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``unpatch``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        result[s.id] = (s.end - s.start) - covered([iv for iv in inside if iv[1] > iv[0]])
    return result
