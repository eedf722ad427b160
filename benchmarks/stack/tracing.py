"""In-memory spans and counters for the traced run.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; nothing inside ``repro`` is touched.
Everything stays in memory until :meth:`Tracer.write_chrome` at exit.

A span's *layer* is the ``repro`` module it measures (``bench`` for the
benchmark's own glue: building inputs, hashing, reading files back).
Self time is a span's duration minus the part of it that child spans
cover, so layer self times add up to the traced wall minus the residual
(time outside every span) that the layer table ends with.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: ``<workload>#<repeat>``: spans of one repeat share it.
    repeat: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover
    (clipped to the parent, overlapping children counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(parent.id, []).append(clipped)
    return {
        span.id: span.seconds - covered(children.get(span.id, ()))
        for span in spans
    }


class Tracer:
    """Span stack plus counters; single-threaded, like the benchmark."""

    def __init__(self, clock: Any = time.perf_counter) -> None:
        self._clock = clock
        self.started = clock()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        self.repeat = ""

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, self._clock(),
                    parent=parent, repeat=self.repeat)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def layer_table(self, wall: float | None = None) -> list[dict[str, Any]]:
        """One row per layer (self seconds, share of the traced wall,
        span count), largest first, then the explicit residual row."""
        if wall is None:
            wall = self._clock() - self.started
        own = self_times(self.spans)
        rows: dict[str, dict[str, Any]] = {}
        for span in self.spans:
            row = rows.setdefault(
                span.layer, {"layer": span.layer, "self_s": 0.0, "spans": 0}
            )
            row["self_s"] += own[span.id]
            row["spans"] += 1
        table = sorted(rows.values(), key=lambda r: -r["self_s"])
        table.append({
            "layer": "residual",
            "self_s": wall - sum(r["self_s"] for r in table),
            "spans": 0,
        })
        for row in table:
            row["share"] = row["self_s"] / wall if wall > 0 else 0.0
        return table

    def chrome(self) -> dict[str, Any]:
        """Chrome / Perfetto Trace Event Format (``ph: X`` complete
        events in microseconds; counters as one ``ph: C`` sample)."""
        events: list[dict[str, Any]] = [
            {
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - self.started) * 1e6,
                "dur": span.seconds * 1e6, "pid": 1, "tid": 1,
                "args": {"id": span.id, "parent": span.parent,
                         "repeat": span.repeat},
            }
            for span in self.spans
        ]
        end = (self._clock() - self.started) * 1e6
        events.extend(
            {"name": name, "ph": "C", "ts": end, "pid": 1, "tid": 1,
             "args": {"value": value}}
            for name, value in sorted(self.counters.items())
        )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.chrome()), encoding="utf-8")
        return target
