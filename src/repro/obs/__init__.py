"""repro.obs: unified telemetry for the link pipeline.

One run of the screen->camera link used to answer "what happened" with
four disjoint report objects (stage timers, degradation, healing,
benchmark blobs).  This package is the single telemetry surface under
them all:

* :mod:`~repro.obs.metrics` -- a registry of ``Counter`` / ``Gauge`` /
  fixed-bucket ``Histogram`` metrics whose merges are *exact* (integer
  adds, max-combines), so serial and ``workers=N`` runs produce
  bit-identical work-scoped telemetry;
* :mod:`~repro.obs.trace` -- a span tracer emitting structured records
  with ids, parent ids and system-wide monotonic timestamps, mergeable
  across processes and exportable as Chrome ``trace_event`` JSON;
* :mod:`~repro.obs.telemetry` -- the live :class:`Telemetry` collector
  (workers record locally, exports ride back with each chunk, the parent
  merges) and the frozen :class:`RunTelemetry` attached to
  ``LinkRun`` / ``TransportRun`` and rendered by
  ``python -m repro.tools.report``;
* :mod:`~repro.obs.live` -- the streaming side-channel: exec-scoped
  :class:`TimeSeries` ring buffers fed by a :class:`LiveCollector`
  snapshotting at a fixed cadence, exported as Prometheus text
  exposition or an append-only JSONL stream (both
  ``repro.obs.live/1``), deliberately excluded from ``metrics_json()``
  so the byte-identity contract is untouched;
* :mod:`~repro.obs.profile` -- a sampling profiler
  (:class:`SamplingProfiler`) with per-stage aggregation and
  collapsed-stack flamegraph export.

See ``docs/observability.md`` for the design and the determinism
contract.
"""

from repro.obs.live import (
    LiveCollector,
    TimeSeries,
    install_live,
    live_collector,
    parse_prometheus,
    record_live,
    render_prometheus,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import ProfileReport, SamplingProfiler
from repro.obs.telemetry import RunTelemetry, Telemetry
from repro.obs.trace import SpanRecord, SpanTracer, chrome_trace, stage_totals

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LiveCollector",
    "MetricsRegistry",
    "ProfileReport",
    "RunTelemetry",
    "SamplingProfiler",
    "SpanRecord",
    "SpanTracer",
    "Telemetry",
    "TimeSeries",
    "chrome_trace",
    "install_live",
    "live_collector",
    "parse_prometheus",
    "record_live",
    "render_prometheus",
    "stage_totals",
]
