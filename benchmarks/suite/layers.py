"""Per-layer tracing from outside the program, and the self-time arithmetic.

A traced repetition wraps each layer's public entry point (``HOOKS``) in a
:class:`repro.obs.trace.SpanTracer` span for its duration and restores the
originals afterwards; no file under ``src/`` knows it is being traced.
Each span records its name (the layer), start, duration, parent and the
operation it belongs to (capture index, receiver id or stimulus).  Spans
stay in memory and are written out once, as a Chrome trace, at exit.

A layer's self time is its spans' durations minus the part of each span
that its child spans cover; ``other`` is traced wall time no layer
claims (benchmark glue, result folding, object construction).

The same patching can instead run a pure layer twice per call
(:func:`doubled`), which is known extra work for ``sensitivity.py``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import weakref
from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs.trace import SpanRecord, SpanTracer


@dataclass(frozen=True)
class Hook:
    """One traced entry point: ``module.qualname`` runs as a span named ``layer``.

    ``op`` extracts an operation id from the call's arguments; it applies
    only when no enclosing operation is open (a capture is the operation
    of a link run, but inside a fleet receiver the receiver is).
    """

    layer: str
    module: str
    qualname: str
    op: Callable[..., str] | None = None


def _capture_op(_self: object, _timeline: object, index: int, *_a: Any, **_k: Any) -> str:
    return f"capture-{index}"


def _observe_op(_self: object, capture: Any) -> str:
    return f"capture-{capture.index}"


def _receiver_op(spec: Any, *_a: Any) -> str:
    return f"receiver-{spec.receiver_id}"


#: The physics chain in order: display emit, capture, decode, FEC, eye.
HOOKS = (
    Hook("encode", "repro.core.multiplexer", "MultiplexedStream.frame"),
    Hook("display.gamma", "repro.display.panel", "DisplayPanel.emitted_luminance"),
    Hook("display.emit", "repro.display.scheduler", "DisplayTimeline.frame_average_luminance"),
    Hook("display.sample", "repro.display.scheduler", "DisplayTimeline.luminance_at"),
    Hook("display.memo", "repro.display.scheduler", "MemoizedTimeline.frame_average_luminance"),
    Hook("shutter.weights", "repro.camera.rolling_shutter", "RollingShutter.display_frame_weights"),
    Hook("shutter.blend", "repro.camera.capture", "CameraModel.capture_frame", _capture_op),
    Hook("optics", "repro.camera.optics", "OpticsModel.apply"),
    Hook("resample", "repro.camera.capture", "CameraModel._resample"),
    Hook("sensor", "repro.camera.sensor", "SensorModel.expose"),
    Hook("faults", "repro.faults.inject", "FaultInjectedCamera.capture_frame", _capture_op),
    Hook("faults", "repro.faults.inject", "apply_stream_faults"),
    Hook("decode.observe", "repro.core.decoder", "InFrameDecoder.observe", _observe_op),
    Hook("decode.decide", "repro.core.decoder", "InFrameDecoder.decide_observations"),
    Hook("decode.decide", "repro.core.decoder", "InFrameDecoder.decide_observations_healed"),
    Hook("fec", "repro.transport.packet", "PacketSlotAccumulator.add_frame"),
    Hook("fec", "repro.transport.packet", "PacketSlotAccumulator.decode_slot"),
    Hook("fec", "repro.transport.carousel", "CarouselReceiver.receive"),
    Hook("hvs.waveforms", "repro.hvs.flicker", "FlickerPredictor.region_waveforms"),
    Hook("hvs.score", "repro.hvs.flicker", "FlickerPredictor.report_from_waveforms"),
)

#: Operation boundaries that are not layers: their self time is ``other``.
OP_HOOKS = (Hook("receiver", "repro.serve.fanout", "_simulate_receiver", _receiver_op),)

LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS))
#: Layers whose entry points are pure functions of their arguments, so a
#: second call of one only adds work (see :func:`doubled`).
PURE_LAYERS = ("optics", "resample", "hvs.score")
#: Per-layer statistics, in metric-name order.
LAYER_STATS = (("self_s", "s"), ("share", "ratio"), ("calls", "count"), ("p50_us", "us"))
#: Ratios measured at the layer boundaries, plus the trace's own accounting.
EXTRA_METRICS = (
    ("other.self_s", "s", "lower"),
    ("other.share", "ratio", "lower"),
    ("encode.calls_per_display_frame", "ratio", "lower"),
    ("display.memo.hit_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in output order."""
    specs = [
        (f"{layer}.{stat}", unit, "lower") for layer in LAYERS for stat, unit in LAYER_STATS
    ]
    return specs + list(EXTRA_METRICS)


def _resolve(hook: Hook) -> tuple[object, str]:
    owner: object = importlib.import_module(hook.module)
    *path, attr = hook.qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


Wrap = Callable[[Hook, Callable[..., Any]], Callable[..., Any]]


@contextmanager
def _patched(hooks: Sequence[Hook], wrap: Wrap) -> Iterator[None]:
    """Replace each hook's entry point by ``wrap(hook, original)`` while the body runs."""
    patched = []
    try:
        for hook in hooks:
            owner, attr = _resolve(hook)
            original = owner.__dict__[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, wrap(hook, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _twice(_hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def twice(*args: Any, **kwargs: Any) -> Any:
        fn(*args, **kwargs)
        return fn(*args, **kwargs)

    return twice


def doubled(layer: str) -> AbstractContextManager[None]:
    """Run every call of *layer* twice while the body runs; the first result is dropped.

    This adds a known amount of the program's own work -- the layer's self
    time, with its allocations and memory traffic -- so ``sensitivity.py``
    can check that a slowdown survives the rescaling to reference host
    speed.  Only a layer in ``PURE_LAYERS`` can be doubled without
    changing the outputs.
    """
    if layer not in PURE_LAYERS:
        raise ValueError(f"cannot double {layer!r}; choose from {PURE_LAYERS}")
    return _patched([hook for hook in HOOKS if hook.layer == layer], _twice)


class LayerTracer:
    """Spans for every hooked layer call inside :meth:`rep`."""

    def __init__(self) -> None:
        self.spans = SpanTracer(track="benchmark")
        self._open: list[str] = []
        self._ops: list[str] = []
        # Timelines die and ids get reused, so number them from a counter.
        self._timeline_ids: weakref.WeakKeyDictionary[object, int] = weakref.WeakKeyDictionary()
        self._next_timeline = itertools.count()
        #: (timeline, display frame) pairs the chain read during this repetition.
        self.display_frames: set[tuple[int, int]] = set()

    @contextmanager
    def op(self, name: str, op_id: str) -> Iterator[None]:
        """An operation span; layer spans inside it record *op_id*."""
        self._ops.append(op_id)
        try:
            with self.spans.span(name, op=op_id):
                yield
        finally:
            self._ops.pop()

    @contextmanager
    def rep(self, index: int) -> Iterator[None]:
        """The root span of one traced repetition, with every hook installed."""
        self.display_frames = set()
        with _patched(HOOKS + OP_HOOKS, self._wrap), self.spans.span("rep", rep=index):
            yield

    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        is_op = hook in OP_HOOKS

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # A layer calling back into itself stays one span.
            if tracer._open and tracer._open[-1] == hook.layer:
                return fn(*args, **kwargs)
            pushed = hook.op is not None and (is_op or not tracer._ops)
            if pushed:
                tracer._ops.append(hook.op(*args, **kwargs))
            attrs: dict[str, Any] = {"op": tracer._ops[-1] if tracer._ops else None}
            if hook.layer == "encode":
                attrs["frame"] = args[1]
            elif hook.layer in ("display.emit", "display.sample"):
                timeline, when = args[0], args[1]
                index = when if hook.layer == "display.emit" else timeline.frame_index_at(when)
                key = tracer._timeline_ids.get(timeline)
                if key is None:
                    key = tracer._timeline_ids[timeline] = next(tracer._next_timeline)
                tracer.display_frames.add((key, index))
                attrs["frame"] = index
            tracer._open.append(hook.layer)
            try:
                with tracer.spans.span(hook.layer, **attrs):
                    return fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                if pushed:
                    tracer._ops.pop()

        return traced


def self_times(records: Sequence[SpanRecord]) -> dict[int, float]:
    """Self time of every complete span: its duration minus what its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[SpanRecord]] = {}
    for record in records:
        if record.parent_id is not None and record.dur_s is not None:
            children.setdefault(record.parent_id, []).append(record)
    result = {}
    for record in records:
        if record.dur_s is None:
            continue
        start, end = record.start_s, record.start_s + record.dur_s
        covered = 0.0
        cursor = start
        for child in sorted(children.get(record.span_id, ()), key=lambda r: r.start_s):
            lo = max(child.start_s, cursor)
            hi = min(child.start_s + child.dur_s, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[record.span_id] = record.dur_s - covered
    return result


def layer_metrics(
    records: Sequence[SpanRecord],
    n_reps: int,
    display_frames: int,
    memo_hits: int,
    memo_misses: int,
    overhead: float,
) -> dict[str, float]:
    """The per-layer metrics of *n_reps* traced repetitions.

    Times and counts are per repetition.  ``share`` is a layer's self
    time over traced wall time; ``p50_us`` is the median self time of one
    call.  A layer a workload never calls reads 0, and so do the ratios
    whose base is 0.
    """
    selfs = self_times(records)
    per_layer: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    wall = 0.0
    for record in records:
        if record.name == "rep" and record.dur_s is not None:
            wall += record.dur_s
        elif record.name in per_layer:
            per_layer[record.name].append(selfs[record.span_id])
    metrics: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        values = per_layer[layer]
        total = sum(values)
        attributed += total
        metrics[f"{layer}.self_s"] = total / n_reps
        metrics[f"{layer}.share"] = total / wall if wall else 0.0
        metrics[f"{layer}.calls"] = len(values) / n_reps
        metrics[f"{layer}.p50_us"] = statistics.median(values) * 1e6 if values else 0.0
    encode_calls = len(per_layer["encode"])
    memo_calls = memo_hits + memo_misses
    metrics["other.self_s"] = (wall - attributed) / n_reps
    metrics["other.share"] = (wall - attributed) / wall if wall else 0.0
    metrics["encode.calls_per_display_frame"] = (
        encode_calls / display_frames if display_frames else 0.0
    )
    metrics["display.memo.hit_ratio"] = memo_hits / memo_calls if memo_calls else 0.0
    metrics["trace.overhead"] = overhead
    metrics["trace.attributed_share"] = attributed / wall if wall else 0.0
    return metrics
