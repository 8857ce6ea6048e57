"""Cross-process span tracing with Chrome ``trace_event`` export.

A :class:`SpanTracer` hands out ``with tracer.span("decode", capture=3):``
context managers.  Each completed span becomes an immutable
:class:`SpanRecord` carrying an id, its parent's id (from the tracer's
span stack), the *track* it ran on, and monotonic timestamps from
:func:`time.perf_counter` -- which on POSIX is a system-wide clock, so
spans recorded in worker processes line up with the parent's on a shared
timeline.

Workers each build their own tracer (track names like ``chunk-003`` come
from the deterministic chunk plan), export their records, and ship them
back with the chunk result; the parent folds them in with
:meth:`SpanTracer.merge`.  Span *counts* per ``(name, category)`` are
part of the determinism contract for ``category="work"`` spans; span
timestamps, of course, are not.

Each span also records the process CPU time it took, so
:func:`stage_totals` can roll any span collection up into per-name
``{wall_s, cpu_s, calls}`` totals -- the one source of the run's stage
timings (``RuntimeReport.stages``) and of the report's span table.

:func:`chrome_trace` renders any span collection as Chrome
``trace_event`` JSON loadable in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import cast

#: Span category for work-derived spans (count-deterministic).
WORK = "work"
#: Span category for execution-substrate spans (mode-dependent).
EXEC = "exec"

#: JSON-ready attribute values a span may carry.
AttrValue = str | int | float | bool | None


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (or instant event, when ``dur_s`` is None).

    ``start_s`` is a raw :func:`time.perf_counter` reading; consumers
    subtract the collection's minimum to get a run-relative timeline.
    ``cpu_s`` is the :func:`time.process_time` the span took -- None for
    instant events and for records written before spans carried it.
    """

    name: str
    category: str
    track: str
    span_id: int
    parent_id: int | None
    start_s: float
    dur_s: float | None
    attrs: dict[str, AttrValue]
    cpu_s: float | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "cpu_s": self.cpu_s,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_dict(payload: dict[str, object]) -> "SpanRecord":
        """Rebuild a record from :meth:`as_dict` output."""
        parent = cast("int | None", payload["parent_id"])
        dur = cast("float | None", payload["dur_s"])
        cpu = cast("float | None", payload.get("cpu_s"))
        attrs = cast("dict[str, AttrValue]", payload.get("attrs") or {})
        return SpanRecord(
            name=str(payload["name"]),
            category=str(payload["category"]),
            track=str(payload["track"]),
            span_id=int(cast(int, payload["span_id"])),
            parent_id=None if parent is None else int(parent),
            start_s=float(cast(float, payload["start_s"])),
            dur_s=None if dur is None else float(dur),
            attrs=dict(attrs),
            cpu_s=None if cpu is None else float(cpu),
        )


class SpanTracer:
    """Collects spans for one track (one process / logical thread).

    Span ids are small integers local to the tracer; after a merge the
    ``(track, span_id)`` pair stays unique because each worker tracer
    gets its own track name.
    """

    def __init__(self, track: str = "main") -> None:
        self.track = track
        self._records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, category: str = WORK, **attrs: AttrValue) -> Iterator[None]:
        """Time a ``with`` block (wall and CPU) as one span under the current parent."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            self._stack.pop()
            self._records.append(
                SpanRecord(
                    name=name,
                    category=category,
                    track=self.track,
                    span_id=span_id,
                    parent_id=parent,
                    start_s=start,
                    dur_s=dur,
                    attrs=attrs,
                    cpu_s=cpu,
                )
            )

    def event(self, name: str, category: str = WORK, **attrs: AttrValue) -> None:
        """Record an instant event (a span with no duration)."""
        span_id = self._next_id
        self._next_id += 1
        self._records.append(
            SpanRecord(
                name=name,
                category=category,
                track=self.track,
                span_id=span_id,
                parent_id=self._stack[-1] if self._stack else None,
                start_s=time.perf_counter(),
                dur_s=None,
                attrs=attrs,
            )
        )

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """The completed spans so far, in completion order."""
        return tuple(self._records)

    def export(self) -> list[dict[str, object]]:
        """Serialize every record (the form that rides back with chunks)."""
        return [record.as_dict() for record in self._records]

    def merge(self, exported: Sequence[dict[str, object]]) -> None:
        """Fold serialized records from another tracer into this one."""
        self._records.extend(SpanRecord.from_dict(payload) for payload in exported)


def sort_spans(records: Sequence[SpanRecord]) -> list[SpanRecord]:
    """Records in canonical display order: by start time, then track/id."""
    return sorted(records, key=lambda r: (r.start_s, r.track, r.span_id))


def stage_totals(records: Iterable[SpanRecord]) -> dict[str, dict[str, float | int]]:
    """Per-name ``{wall_s, cpu_s, calls}`` totals of the completed spans.

    Instant events are skipped, and a span without a CPU reading adds no
    CPU time.  Names appear in the order their first span completed.
    """
    totals: dict[str, dict[str, float | int]] = {}
    for record in records:
        if record.dur_s is None:
            continue
        entry = totals.setdefault(record.name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0})
        entry["wall_s"] += record.dur_s
        entry["cpu_s"] += record.cpu_s or 0.0
        entry["calls"] += 1
    return totals


def chrome_trace(records: Sequence[SpanRecord]) -> dict[str, object]:
    """The spans as a Chrome ``trace_event`` JSON object.

    Complete spans become ``ph="X"`` events with microsecond ``ts`` and
    ``dur`` relative to the earliest span; instant events become
    ``ph="i"``.  Each distinct track maps to a thread id with a
    ``thread_name`` metadata event, so Perfetto shows the parent and
    every worker chunk as labelled rows.
    """
    ordered = sort_spans(records)
    tracks = sorted({record.track for record in ordered})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    origin = ordered[0].start_s if ordered else 0.0
    events: list[dict[str, object]] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tids[track],
            "args": {"name": track},
        }
        for track in tracks
    ]
    for record in ordered:
        event: dict[str, object] = {
            "name": record.name,
            "cat": record.category,
            "pid": 1,
            "tid": tids[record.track],
            "ts": (record.start_s - origin) * 1e6,
            "args": dict(record.attrs),
        }
        if record.dur_s is None:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = record.dur_s * 1e6
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
