"""In-memory span recording and self-time arithmetic for the traced run.

A span is ``(name, start, end, parent, key)``: ``parent`` is the index of
the enclosing span in the same list (or ``None`` for a root) and ``key``
names the pair or job the span belongs to. Timestamps come from
``time.perf_counter``, which on Linux reads the system-wide monotonic clock,
so spans recorded in sweep worker processes line up with the parent's.

Spans stay in memory while the workload runs and are written out once at
exit (:func:`write_spans`), so recording costs a list append per span.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Iterator, NamedTuple

__all__ = [
    "NullTracer",
    "Span",
    "Tracer",
    "covered",
    "self_times",
    "summarize",
    "write_spans",
]


class Span(NamedTuple):
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int | None
    key: str | None

    @property
    def duration(self) -> float:
        """Wall seconds between start and end."""
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span()`` parents each span on the open one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None) -> Iterator[None]:
        """Time the body as span ``name`` under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, key))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = self.spans[idx]._replace(end=time.perf_counter())

    def add(self, name: str, start: float, end: float, key: str | None = None) -> None:
        """Record an already-timed span under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, key))

    def extend(self, spans: list[Span], parent: int | None) -> None:
        """Graft spans recorded elsewhere (a worker process) under ``parent``.

        Indices inside ``spans`` are relative to that list; roots there
        become children of ``parent`` here.
        """
        base = len(self.spans)
        for s in spans:
            p = parent if s.parent is None else base + s.parent
            self.spans.append(Span(s.name, s.start, s.end, p, s.key))


class NullTracer:
    """Drop-in for :class:`Tracer` on the timed run: records nothing."""

    spans: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None) -> Iterator[None]:
        """No-op context manager."""
        yield

    def add(self, name: str, start: float, end: float, key: str | None = None) -> None:
        """Discard the span."""

    def extend(self, spans: list[Span], parent: int | None) -> None:
        """Discard the spans."""


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: count, total duration and total self time."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines (one span per line, with its index)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"i": i, **s._asdict()}) + "\n")
