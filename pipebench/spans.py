"""In-memory spans recorded around the benchmark's calls into the program.

A span has a name, start and end (time.perf_counter, which reads the
system-wide monotonic clock, so spans from several processes share one
time base), the id of the span that caused it, the operation it belongs
to, and optional counts measured at the same boundary. Spans stay in
memory until the run ends. With tracing off, span() returns one shared
no-op object, so the untraced code path records nothing.
"""

from __future__ import annotations

import time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, **counts) -> None:
        pass


_NULL = _NullSpan()


class _Span:
    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = {"name": name, "op": tracer.op, "counts": {}}

    def __enter__(self):
        tr = self.tracer
        self.record["id"] = f"{tr.source}.{len(tr.spans)}"
        self.record["parent"] = tr.stack[-1] if tr.stack else None
        tr.spans.append(self.record)
        tr.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def count(self, **counts) -> None:
        self.record["counts"].update(counts)


class Tracer:
    """Collects spans for one source (a workload or a probe)."""

    def __init__(self, source: str, enabled: bool):
        self.source = source
        self.enabled = enabled
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.op: int | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

