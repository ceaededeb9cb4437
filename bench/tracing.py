"""Spans recorded by the benchmark around its own calls into emck.

A span is ``[name, start, end, parent]``: ``start`` and ``end`` are
``time.perf_counter`` readings and ``parent`` is the index of the enclosing
span in the same list, or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index", "parent")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer._open
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter(), None, self.parent])
        tracer._open = self.index

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = perf_counter()
        tracer._open = self.parent


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        pass


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False
    spans: list = []
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = NullTracer()
