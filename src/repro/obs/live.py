"""Streaming live telemetry: exec-scoped time-series beside exact merges.

The metrics registry (:mod:`repro.obs.metrics`) answers "what happened"
after a run: its merges are exact, its work scope is byte-identical at
any worker count, and nothing in it may depend on the wall clock.  That
contract is also why it cannot answer "what is happening *now*" -- a
mid-flight view is wall-clock-stamped by nature.  This module is the
side-channel for that view, built so the two never mix:

* :class:`TimeSeries` -- a fixed-capacity ring buffer of
  ``(wall_time, value)`` points.  Exec-scoped by definition: the points
  are stamped with ``time.time()`` and deliberately excluded from
  ``metrics_json()`` / ``work_json()``, so enabling live telemetry
  cannot perturb the serial-vs-workers byte-identity artifact.
* :class:`LiveCollector` -- the recording surface.  Instrumentation
  calls :meth:`LiveCollector.record` directly (cheap, thread-safe, a
  no-op through the module-level :func:`record_live` helper when no
  collector is installed), and attached
  :class:`~repro.obs.metrics.MetricsRegistry` instances are *sampled*
  into series on every snapshot -- the registry is read, never written.
* Two exporters, both versioned :data:`LIVE_FORMAT`:
  :meth:`LiveCollector.write_snapshot` appends one JSONL record per
  snapshot to a stream file (what ``repro.tools.watch`` tails), and
  :func:`render_prometheus` renders the current values in Prometheus
  text exposition format (parse it back with
  :func:`parse_prometheus`).

The checks layer enforces the wall: rule ``OBS002`` flags any
time-series read (``.latest()`` / ``.points()`` / ``.values()``)
flowing into a work-scoped sink, exactly as ``DET004`` does for
exec-scoped registry metrics.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable

from repro.obs.metrics import MetricsRegistry

#: Version tag stamped on both exporter formats.
LIVE_FORMAT = "repro.obs.live/1"

#: Default ring capacity: 4 minutes of points at the 1 Hz default cadence.
DEFAULT_CAPACITY = 240

#: Default snapshot cadence (seconds).
DEFAULT_INTERVAL_S = 1.0


class TimeSeries:
    """A fixed-capacity ring buffer of wall-clock-stamped values.

    Appends past ``capacity`` overwrite the oldest point.  Points carry
    ``time.time()`` stamps (or an explicit ``t``), which is precisely
    why a series is exec-scoped: two runs of the same work never agree
    on its contents, so it must never feed a bit-identity sink.
    """

    __slots__ = ("name", "capacity", "_times", "_values", "_start", "_count")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self._times: list[float] = [0.0] * self.capacity
        self._values: list[float] = [0.0] * self.capacity
        self._start = 0  # index of the oldest point
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def record(self, value: float, t: float | None = None) -> None:
        """Append one point (stamped now unless *t* is given)."""
        stamp = time.time() if t is None else float(t)
        slot = (self._start + self._count) % self.capacity
        if self._count == self.capacity:
            self._start = (self._start + 1) % self.capacity
        else:
            self._count += 1
        self._times[slot] = stamp
        self._values[slot] = float(value)

    def points(self) -> list[tuple[float, float]]:
        """Every retained ``(t, value)`` point, oldest first."""
        out: list[tuple[float, float]] = []
        for i in range(self._count):
            slot = (self._start + i) % self.capacity
            out.append((self._times[slot], self._values[slot]))
        return out

    def values(self) -> list[float]:
        """The retained values, oldest first."""
        return [value for _, value in self.points()]

    def latest(self) -> float | None:
        """The most recent value, or ``None`` for an empty series."""
        if self._count == 0:
            return None
        slot = (self._start + self._count - 1) % self.capacity
        return self._values[slot]

    def latest_time(self) -> float | None:
        """The most recent point's wall-clock stamp, or ``None``."""
        if self._count == 0:
            return None
        slot = (self._start + self._count - 1) % self.capacity
        return self._times[slot]


class LiveCollector:
    """The recording surface live instrumentation writes into.

    Parameters
    ----------
    interval_s:
        Snapshot cadence of the background sampler (:meth:`start`).
    capacity:
        Ring capacity of every series created through this collector.
    snapshot_path:
        When given, every snapshot appends one :data:`LIVE_FORMAT`
        JSONL record here -- the stream ``repro.tools.watch`` tails.
    clock:
        Wall-clock source (injectable for tests).

    Thread safety: :meth:`record` and :meth:`snapshot` take the
    collector lock, so direct recording from worker threads and the
    background sampler coexist.  The collector is deliberately *not*
    shipped across process boundaries -- workers record into their own
    process-local state or not at all; live telemetry is advisory and
    never merged, so losing a worker's view costs nothing.
    """

    def __init__(
        self,
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
        snapshot_path: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0.0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.snapshot_path = snapshot_path
        self.clock = clock
        self.snapshots = 0
        self._series: dict[str, TimeSeries] = {}
        self._registries: dict[str, MetricsRegistry] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def series(self, name: str) -> TimeSeries:
        """The series registered under *name* (created on first use)."""
        with self._lock:
            return self._series_locked(name)

    def _series_locked(self, name: str) -> TimeSeries:
        found = self._series.get(name)
        if found is None:
            found = self._series[name] = TimeSeries(name, capacity=self.capacity)
        return found

    def names(self) -> list[str]:
        """Every registered series name, sorted."""
        with self._lock:
            return sorted(self._series)

    def record(self, name: str, value: float, t: float | None = None) -> None:
        """Append one point to series *name* (cheap; safe from any thread)."""
        stamp = self.clock() if t is None else float(t)
        with self._lock:
            self._series_locked(name).record(value, t=stamp)

    def attach(self, registry: MetricsRegistry, prefix: str = "") -> None:
        """Sample *registry* into series on every snapshot (read-only).

        Counters and gauges sample their current value; histograms
        sample their observation count.  Series names are the metric
        names under *prefix*.  Attaching a second registry under the
        same prefix replaces the first (transport rounds re-attach each
        round's registry without unbounded growth).  The registry is
        never written: live sampling cannot perturb the exact-merge
        artifact.
        """
        with self._lock:
            self._registries[prefix] = registry

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Sample every attached registry; return the record.

        The record is the JSONL stream's line format: ``format``,
        ``seq``, wall time ``t``, and the latest value of every series.
        When :attr:`snapshot_path` is set the record is appended there.
        """
        now = self.clock()
        with self._lock:
            for prefix in sorted(self._registries):
                registry = self._registries[prefix]
                for name, payload in registry.as_dict().items():
                    kind = payload.get("kind")
                    sampled: object = (
                        payload.get("count")
                        if kind == "histogram"
                        else payload.get("value")
                    )
                    if isinstance(sampled, (int, float)):
                        self._series_locked(prefix + name).record(
                            float(sampled), t=now
                        )
            values = {
                name: self._series[name].latest() for name in sorted(self._series)
            }
            seq = self.snapshots
            self.snapshots += 1
        record: dict[str, object] = {
            "format": LIVE_FORMAT,
            "seq": seq,
            "t": now,
            "values": values,
        }
        if self.snapshot_path is not None:
            self.write_snapshot(record)
        return record

    def write_snapshot(self, record: dict[str, object]) -> None:
        """Append one snapshot record to the JSONL stream (exporter 1)."""
        if self.snapshot_path is None:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            with open(self.snapshot_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass  # advisory stream; losing a snapshot must never fail the run

    # ------------------------------------------------------------------
    # The background sampler
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            self.snapshot()
            self._stop.wait(self.interval_s)

    def start(self) -> "LiveCollector":
        """Start the snapshot thread (daemon; one snapshot per interval)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="live-collector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler and take one last snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.snapshot()

    def __enter__(self) -> "LiveCollector":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Exporter 2: Prometheus text exposition
# ----------------------------------------------------------------------
def _prometheus_name(name: str) -> str:
    """A series name mangled to Prometheus' ``[a-zA-Z0-9_]`` alphabet."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not safe or safe[0].isdigit():
        safe = "_" + safe
    return "repro_live_" + safe


def render_prometheus(collector: LiveCollector) -> str:
    """The collector's current values in Prometheus text exposition format.

    One ``gauge`` per series, sample value = the latest point, sample
    timestamp = the latest point's wall time in milliseconds.  The
    leading comment carries :data:`LIVE_FORMAT` so scrapers can assert
    the version.
    """
    lines = [f"# {LIVE_FORMAT}"]
    with collector._lock:
        names = sorted(collector._series)
        for name in names:
            series = collector._series[name]
            value = series.latest()
            stamp = series.latest_time()
            if value is None or stamp is None:
                continue
            metric = _prometheus_name(name)
            lines.append(f"# HELP {metric} live series {name}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f'{metric}{{series="{name}"}} {value:g} {int(stamp * 1000)}')
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse :func:`render_prometheus` output back to ``{series: value}``.

    Strict enough to catch a broken exposition (bad sample lines raise
    ``ValueError``); used by the CI watch smoke job and the tests.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition("}")
        if "{" not in head or not rest.strip():
            raise ValueError(f"unparseable exposition line: {line!r}")
        _, _, label = head.partition("{")
        key = label.partition("=")[2].strip('"')
        parts = rest.split()
        if len(parts) not in (1, 2):
            raise ValueError(f"unparseable exposition sample: {line!r}")
        out[key] = float(parts[0])
    return out


# ----------------------------------------------------------------------
# The process-wide installation point
# ----------------------------------------------------------------------
_INSTALLED: LiveCollector | None = None
_INSTALL_LOCK = threading.Lock()


def install_live(collector: LiveCollector | None) -> LiveCollector | None:
    """Install (or with ``None`` clear) the process-wide collector.

    Returns the previous collector.  Instrumentation sites use
    :func:`record_live`, which is a cheap no-op while nothing is
    installed -- the default, so the exact-merge pipeline pays nothing
    for the existence of this module.
    """
    global _INSTALLED
    with _INSTALL_LOCK:
        previous = _INSTALLED
        _INSTALLED = collector
    return previous


def live_collector() -> LiveCollector | None:
    """The installed process-wide collector, if any."""
    return _INSTALLED


def record_live(name: str, value: float) -> None:
    """Record into the installed collector; no-op when none is installed."""
    collector = _INSTALLED
    if collector is not None:
        collector.record(name, value)

