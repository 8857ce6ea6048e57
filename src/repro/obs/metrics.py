"""The metrics registry: counters, gauges and fixed-bucket histograms.

Telemetry on a parallel pipeline is only trustworthy if the numbers do
not depend on *how* the work was executed.  Every merge operation here is
therefore **exact**: counters add integers, histograms add integer bucket
counts, and gauges combine with ``max`` -- all commutative and
associative, so folding worker-local registries into the parent's in any
completion order yields bit-identical results to serial execution.  The
one deliberate omission is a floating-point running *sum* (float addition
is not associative); histograms carry exact ``min``/``max`` extrema
instead.

Metrics carry a *scope*:

``"work"``
    Derived purely from the work items' values (noise levels, parity
    failures, transport rounds).  Work metrics are covered by the
    determinism contract: serial and ``workers=N`` runs agree byte for
    byte (see ``docs/observability.md``).
``"exec"``
    Describes the execution substrate (chunks dispatched, pool rebuilds,
    crash retries).  Exec metrics legitimately differ between
    serial and parallel runs and are excluded from
    :meth:`MetricsRegistry.work_json`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from typing import cast

import numpy as np

WORK = "work"
EXEC = "exec"
_SCOPES = (WORK, EXEC)

#: Serialized form of one metric (plain JSON-ready values only).
MetricDict = dict[str, object]


def _check_scope(scope: str) -> str:
    if scope not in _SCOPES:
        raise ValueError(f"scope must be one of {_SCOPES}, got {scope!r}")
    return scope


class Counter:
    """A monotonically increasing integer count."""

    kind = "counter"

    def __init__(self, name: str, scope: str = WORK) -> None:
        self.name = name
        self.scope = _check_scope(scope)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (must be >= 0) to the count."""
        n = int(n)
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        self.value += n

    def merge(self, other: MetricDict) -> None:
        """Fold a serialized counter into this one (exact: integer add)."""
        self.value += int(cast(int, other["value"]))

    def as_dict(self) -> MetricDict:
        """JSON-ready form."""
        return {"kind": self.kind, "scope": self.scope, "value": self.value}


class Gauge:
    """A point-in-time level; merges keep the maximum observed value.

    ``max`` is the only order-independent combination of last-set values
    from concurrent recorders, so that is the merge rule -- a gauge here
    answers "how high did it get", not "where did it end".
    """

    kind = "gauge"

    def __init__(self, name: str, scope: str = EXEC) -> None:
        self.name = name
        self.scope = _check_scope(scope)
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record a level (the running maximum is kept)."""
        value = float(value)
        if self.value is None or value > self.value:
            self.value = value

    def merge(self, other: MetricDict) -> None:
        """Fold a serialized gauge into this one (exact: max)."""
        value = other["value"]
        if value is not None:
            self.set(float(cast(float, value)))

    def as_dict(self) -> MetricDict:
        """JSON-ready form."""
        return {"kind": self.kind, "scope": self.scope, "value": self.value}


class Histogram:
    """A fixed-bucket histogram with exact merges.

    The bucket edges are fixed at construction, so two recorders of the
    same metric always agree on the binning and merging is pure integer
    addition of per-bucket counts -- the property that makes serial and
    ``workers=N`` telemetry bit-identical.  Values below ``edges[0]``
    land in the underflow bucket, values ``>= edges[-1]`` in the
    overflow bucket, so ``len(counts) == len(edges) + 1``.
    """

    kind = "histogram"

    def __init__(self, name: str, edges: Sequence[float], scope: str = WORK) -> None:
        if len(edges) < 1:
            raise ValueError("histogram needs at least one bucket edge")
        bounds = [float(e) for e in edges]
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket edges must be strictly increasing, got {bounds}")
        self.name = name
        self.scope = _check_scope(scope)
        self.edges = tuple(bounds)
        self._edge_array = np.asarray(bounds, dtype=np.float64)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one value."""
        self.observe_array(np.asarray([value], dtype=np.float64))

    def observe_array(self, values: np.ndarray | Iterable[float]) -> None:
        """Record a batch of values in one vectorised pass."""
        data = np.asarray(values, dtype=np.float64).ravel()
        if data.size == 0:
            return
        buckets = np.searchsorted(self._edge_array, data, side="right")
        binned = np.bincount(buckets, minlength=len(self.counts))
        for index, n in enumerate(binned):
            self.counts[index] += int(n)
        self.count += int(data.size)
        lo, hi = float(data.min()), float(data.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    def merge(self, other: MetricDict) -> None:
        """Fold a serialized histogram into this one (exact: int adds, min/max)."""
        other_edges = tuple(float(e) for e in cast(Sequence[float], other["edges"]))
        if other_edges != self.edges:
            raise ValueError(
                f"histogram {self.name!r} edge mismatch: {other_edges} != {self.edges}"
            )
        for index, n in enumerate(cast("Sequence[int]", other["counts"])):
            self.counts[index] += int(n)
        self.count += int(cast(int, other["count"]))
        for bound, better in (("min", min), ("max", max)):
            theirs = cast("float | None", other[bound])
            if theirs is None:
                continue
            mine = cast("float | None", getattr(self, bound))
            value = float(theirs)
            setattr(self, bound, value if mine is None else better(mine, value))

    def as_dict(self) -> MetricDict:
        """JSON-ready form."""
        return {
            "kind": self.kind,
            "scope": self.scope,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A named collection of metrics with exact, order-independent merges.

    Metric identity is the name: asking for an existing name returns the
    existing instance (after checking kind, scope and -- for histograms
    -- edges agree), so instrumentation sites need no shared setup.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def counter(self, name: str, scope: str = WORK) -> Counter:
        """The counter registered under *name* (created on first use)."""
        metric = self._get(name, Counter.kind, scope)
        if metric is None:
            metric = self._metrics[name] = Counter(name, scope=scope)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, scope: str = EXEC) -> Gauge:
        """The gauge registered under *name* (created on first use)."""
        metric = self._get(name, Gauge.kind, scope)
        if metric is None:
            metric = self._metrics[name] = Gauge(name, scope=scope)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, edges: Sequence[float], scope: str = WORK
    ) -> Histogram:
        """The histogram registered under *name* (created on first use)."""
        metric = self._get(name, Histogram.kind, scope)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, edges, scope=scope)
        assert isinstance(metric, Histogram)
        if tuple(float(e) for e in edges) != metric.edges:
            raise ValueError(
                f"histogram {name!r} re-registered with different edges"
            )
        return metric

    def _get(self, name: str, kind: str, scope: str) -> Metric | None:
        metric = self._metrics.get(name)
        if metric is None:
            return None
        if metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        if metric.scope != scope:
            raise ValueError(
                f"metric {name!r} is {metric.scope}-scoped, not {scope}"
            )
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def merge(self, other: "MetricsRegistry | dict[str, MetricDict]") -> None:
        """Fold another registry (or its ``as_dict``) into this one.

        Unknown names are adopted; known names merge exactly.  Because
        every merge rule is commutative and associative, the fold order
        never matters -- worker registries can arrive in completion
        order and the result is still bit-identical to serial.
        """
        items = other.as_dict() if isinstance(other, MetricsRegistry) else other
        for name, payload in items.items():
            kind = str(payload["kind"])
            scope = str(payload["scope"])
            if kind == Counter.kind:
                self.counter(name, scope=scope).merge(payload)
            elif kind == Gauge.kind:
                self.gauge(name, scope=scope).merge(payload)
            elif kind == Histogram.kind:
                edges = [float(e) for e in cast(Sequence[float], payload["edges"])]
                self.histogram(name, edges, scope=scope).merge(payload)
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    def as_dict(self) -> dict[str, MetricDict]:
        """Every metric, serialized, in sorted-name order."""
        return {name: self._metrics[name].as_dict() for name in sorted(self._metrics)}

    def work_json(self) -> str:
        """Canonical JSON of the work-scoped metrics only.

        This is the determinism artifact: for the same run parameters it
        is byte-identical regardless of worker count (sorted keys, fixed
        separators, no whitespace variation).
        """
        work = {
            name: payload
            for name, payload in self.as_dict().items()
            if payload["scope"] == WORK
        }
        return json.dumps(work, sort_keys=True, separators=(",", ":"))
