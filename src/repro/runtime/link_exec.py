"""The photon pipeline on the execution engine.

One work item is a :class:`~repro.runtime.scheduler.WorkChunk` of camera
frame indices.  A worker renders each capture from the display timeline
(with the capture's own spawn-keyed RNG), extracts the decoder's noise
observation, and returns the captures, observations and its stage spans
through the pool's result queue.  The parent drains chunks as they
complete and reassembles the ordered capture/observation lists --
bit-identical to serial execution, because no randomness is shared
across captures (see ``docs/runtime.md`` for the contract).

Chunks are contiguous so each worker's timeline cache stays warm: one
capture integrates a handful of consecutive display frames, and
consecutive captures overlap only at chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.camera.capture import CapturedFrame, TimelineLike
from repro.display.scheduler import DisplayTimeline
from repro.obs import SpanTracer, Telemetry
from repro.obs.telemetry import TelemetryDict
from repro.obs.trace import EXEC
from repro.runtime.engine import ExecutionEngine
from repro.runtime.scheduler import WorkChunk, plan_chunks

if TYPE_CHECKING:  # imported lazily to keep repro.runtime free of repro.core
    from repro.core.decoder import BlockObservation, InFrameDecoder


class CaptureSource(Protocol):
    """The camera-shaped surface the capture workers drive.

    Satisfied by :class:`~repro.camera.capture.CameraModel` and by
    wrappers that perturb it (``repro.faults.FaultInjectedCamera``); the
    runtime layer only needs the sensor geometry and the render call.
    """

    @property
    def height(self) -> int: ...

    @property
    def width(self) -> int: ...

    def capture_frame(
        self,
        timeline: TimelineLike,
        index: int,
        rng: np.random.Generator | None = None,
    ) -> CapturedFrame: ...


@dataclass(frozen=True)
class _LinkContext:
    """Everything a worker needs; inherited whole under a forked pool."""

    timeline: DisplayTimeline
    camera: CaptureSource
    decoder: InFrameDecoder
    collect_telemetry: bool = True


@dataclass(frozen=True)
class _ChunkResult:
    captures: tuple[CapturedFrame, ...]
    observations: tuple[BlockObservation, ...]
    telemetry: TelemetryDict  # the chunk's spans, plus metrics when collected


@dataclass(frozen=True)
class LinkExecution:
    """Ordered outputs of the capture+observe stages, plus accounting.

    ``tracer`` holds every stage span of the run so far (the caller's
    telemetry tracer when one was given); the caller adds its own stages
    and rolls them up into ``RuntimeReport.stages``.
    """

    captures: list[CapturedFrame]
    observations: list[BlockObservation]
    mode: str
    workers: int
    chunks: int
    retries: int
    tracer: SpanTracer
    crashed_chunks: tuple[int, ...] = ()
    serial_fallback: bool = False


def _capture_chunk(chunk: WorkChunk, ctx: _LinkContext) -> _ChunkResult:
    """Render, film and observe every capture of one chunk (worker side)."""
    from repro.core.decoder import record_observation_telemetry

    # A deterministic track name from the chunk plan keeps (track,
    # span_id) unique after the parent merges all chunk exports.
    telemetry = Telemetry(track=f"chunk-{chunk.index:03d}")
    tracer = telemetry.tracer
    captures = []
    observations = []
    for index in chunk.items:
        rng = chunk.item_rng(index)
        with tracer.span("render", capture=index):
            capture = ctx.camera.capture_frame(ctx.timeline, index, rng=rng)
        with tracer.span("observe", capture=index):
            observation = ctx.decoder.observe(capture)
        if ctx.collect_telemetry:
            record_observation_telemetry(observation, telemetry)
        captures.append(capture)
        observations.append(observation)
    return _ChunkResult(
        captures=tuple(captures),
        observations=tuple(observations),
        telemetry=telemetry.export(),
    )


def execute_link_captures(
    timeline: DisplayTimeline,
    camera: CaptureSource,
    decoder: InFrameDecoder,
    n_frames: int,
    seed: int,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> LinkExecution:
    """Run capture + observe for *n_frames* camera frames, possibly in parallel.

    ``workers in (None, 0, 1)`` executes in-process (no pool) but on the
    same per-capture RNG streams and the same code path, so the results
    are identical either way.

    Workers always record ``render``/``observe`` spans on ``chunk-NNN``
    tracks, folded into ``LinkExecution.tracer`` as chunks drain; the
    parent times each drain as ``transfer``.  When *telemetry* is given,
    that tracer is its own, workers also collect per-capture metrics, and
    scheduling accounting lands in exec-scoped metrics on the parent side.
    """
    serial = workers is None or int(workers) <= 1
    engine = ExecutionEngine(workers=1 if serial else int(workers), telemetry=telemetry)
    if serial or not engine.parallel:
        chunks = plan_chunks(n_frames, n_chunks=1, seed=seed)
    else:
        # Two chunks per worker: capture cost is homogeneous, so near-equal
        # chunks already balance load, and every extra chunk pays a cold
        # timeline cache (the LC-state warmup plus a few display-frame
        # renders) again.
        chunks = plan_chunks(n_frames, n_chunks=engine.workers * 2, seed=seed)
    ctx = _LinkContext(
        timeline=timeline,
        camera=camera,
        decoder=decoder,
        collect_telemetry=telemetry is not None,
    )
    # Chunk exports fold into a throwaway collector when the caller takes
    # no telemetry: their spans are still the run's stage timings.
    sink = telemetry if telemetry is not None else Telemetry(track="main")
    by_index: dict[int, tuple[CapturedFrame, BlockObservation]] = {}
    if telemetry is not None:
        telemetry.metrics.counter("exec.chunks", scope=EXEC).inc(len(chunks))

    def drain(_i: int, result: _ChunkResult) -> None:
        sink.merge_export(result.telemetry)
        with sink.tracer.span("transfer", category=EXEC):
            for capture, observation in zip(result.captures, result.observations):
                by_index[capture.index] = (capture, observation)

    engine.map(_capture_chunk, chunks, context=ctx, on_result=drain)
    if telemetry is not None:
        stats = engine.stats
        telemetry.metrics.counter("exec.retries", scope=EXEC).inc(stats.retries)
        telemetry.metrics.counter("exec.crashes", scope=EXEC).inc(stats.crashes)
        telemetry.metrics.counter("exec.serial_items", scope=EXEC).inc(
            stats.serial_items
        )
    ordered = [by_index[i] for i in sorted(by_index)]
    return LinkExecution(
        captures=[pair[0] for pair in ordered],
        observations=[pair[1] for pair in ordered],
        mode=engine.stats.mode,
        workers=engine.workers,
        chunks=len(chunks),
        retries=engine.stats.retries,
        tracer=sink.tracer,
        crashed_chunks=tuple(engine.stats.crashed_items),
        serial_fallback=engine.stats.mode == "serial-fallback",
    )
