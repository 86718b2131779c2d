"""In-memory spans for the traced benchmark run.

A span is [name, module, start, end, parent, request]: `parent` is the index
of the enclosing span (None at top level) and `request` the identifier of the
request the span belongs to.  Spans are appended to one list and written out
once, when the run ends.  Only the benchmark's own calls into the library are
wrapped; nothing inside the library is instrumented.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

NAME, MODULE, START, END, PARENT, REQUEST = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self.failed: Counter = Counter()
        self._stack: list[int] = []
        self._last_error: BaseException | None = None

    def span(self, name: str, module: str) -> "_Span":
        return _Span(self, name, module)

    def self_times(self, first: int = 0) -> dict[tuple[str, str], float]:
        """Self time (duration minus time covered by child spans) summed by
        (module, name) over the spans from index `first` on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None and s[PARENT] >= first:
                child[s[PARENT] - first] += s[END] - s[START]
        out: dict[tuple[str, str], float] = defaultdict(float)
        for s, covered in zip(spans, child):
            out[s[MODULE], s[NAME]] += (s[END] - s[START]) - covered
        return out

    def counts(self, first: int = 0) -> Counter:
        """Number of spans by (module, name) from index `first` on."""
        return Counter((s[MODULE], s[NAME]) for s in self.spans[first:])


class _Span:
    __slots__ = ("tracer", "name", "module", "index")

    def __init__(self, tracer: Tracer, name: str, module: str):
        self.tracer, self.name, self.module = tracer, name, module

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else None
        t.spans.append([self.name, self.module, time.perf_counter(), None,
                        parent, t.request])
        t._stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self.tracer
        t.spans[self.index][END] = time.perf_counter()
        t._stack.pop()
        # An exception is charged to the innermost module it leaves.
        if exc is not None and exc is not t._last_error:
            t._last_error = exc
            t.failed[self.module] += 1
        return False
