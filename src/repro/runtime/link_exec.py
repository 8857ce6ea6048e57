"""The photon pipeline on the execution engine.

One work item is a :class:`~repro.runtime.scheduler.WorkChunk` of camera
frame indices.  A worker renders each capture from the display timeline
(with the capture's own spawn-keyed RNG), extracts the decoder's noise
observation, parks the pixels in a shared-memory slot, and sends back
only slot handles, observations and its stage spans.  The parent drains
slots as chunks complete and reassembles the ordered capture/observation lists --
bit-identical to serial execution, because no randomness is shared
across captures (see ``docs/runtime.md`` for the contract).

Chunks are contiguous so each worker's timeline cache stays warm: one
capture integrates a handful of consecutive display frames, and
consecutive captures overlap only at chunk boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.camera.capture import CapturedFrame, TimelineLike
from repro.display.scheduler import DisplayTimeline
from repro.obs import SpanTracer, Telemetry
from repro.obs.telemetry import TelemetryDict
from repro.obs.trace import EXEC
from repro.runtime.engine import ExecutionEngine
from repro.runtime.scheduler import WorkChunk, plan_chunks
from repro.runtime.shm import SharedFramePool, SlotRef, shared_memory_available

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
    pool: SharedFramePool | None
    collect_telemetry: bool = True


@dataclass(frozen=True)
class _ChunkTask:
    """One dispatched chunk plus the slots the parent pre-acquired."""

    chunk: WorkChunk
    slots: tuple[SlotRef, ...] | None = None


@dataclass(frozen=True)
class _CaptureRecord:
    """A captured frame travelling back from a worker (pixels by slot)."""

    index: int
    start_time_s: float
    mid_exposure_s: float
    pixels: np.ndarray | None
    slot: SlotRef | None
    observation: BlockObservation


@dataclass(frozen=True)
class _ChunkResult:
    records: tuple[_CaptureRecord, ...]
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


def _capture_chunk(task: _ChunkTask, ctx: _LinkContext) -> _ChunkResult:
    """Render, film and observe every capture of one chunk (worker side)."""
    from repro.core.decoder import record_observation_telemetry

    # A deterministic track name from the chunk plan keeps (track,
    # span_id) unique after the parent merges all chunk exports.
    telemetry = Telemetry(track=f"chunk-{task.chunk.index:03d}")
    tracer = telemetry.tracer
    records = []
    for position, index in enumerate(task.chunk.items):
        rng = task.chunk.item_rng(index)
        with tracer.span("render", capture=index):
            capture = ctx.camera.capture_frame(ctx.timeline, index, rng=rng)
        with tracer.span("observe", capture=index):
            observation = ctx.decoder.observe(capture)
        if ctx.collect_telemetry:
            record_observation_telemetry(observation, telemetry)
        if task.slots is not None:
            with tracer.span("transfer", category=EXEC):
                slot = ctx.pool.write(task.slots[position], capture.pixels)
            pixels = None
        else:
            slot, pixels = None, capture.pixels
        records.append(
            _CaptureRecord(
                index=capture.index,
                start_time_s=capture.start_time_s,
                mid_exposure_s=capture.mid_exposure_s,
                pixels=pixels,
                slot=slot,
                observation=observation,
            )
        )
    return _ChunkResult(records=tuple(records), telemetry=telemetry.export())


def execute_link_captures(
    timeline: DisplayTimeline,
    camera: CaptureSource,
    decoder: InFrameDecoder,
    n_frames: int,
    seed: int,
    workers: int | None = None,
    max_retries: int = 2,
    start_index: int = 0,
    telemetry: Telemetry | None = None,
) -> LinkExecution:
    """Run capture + observe for *n_frames* camera frames, possibly in parallel.

    ``workers in (None, 0, 1)`` executes in-process (no pool, no shared
    memory) but on the same per-capture RNG streams and the same code
    path, so the results are identical either way.

    Workers always record ``render``/``observe``/``transfer`` spans on
    ``chunk-NNN`` tracks, folded into ``LinkExecution.tracer`` as chunks
    drain.  When *telemetry* is given, that tracer is its own, workers
    also collect per-capture metrics, and scheduling and shared-memory
    accounting land in exec-scoped metrics on the parent side.
    """
    serial = workers is None or int(workers) <= 1
    engine = ExecutionEngine(workers=1 if serial else int(workers),
                             max_retries=max_retries, telemetry=telemetry)
    if serial or not engine.parallel:
        chunks = plan_chunks(n_frames, n_chunks=1, seed=seed, start=start_index)
    else:
        # Two chunks per worker: capture cost is homogeneous, so near-equal
        # chunks already balance load, and every extra chunk pays a cold
        # timeline cache (the LC-state warmup plus a few display-frame
        # renders) again.
        chunks = plan_chunks(
            n_frames, n_chunks=engine.workers * 2, seed=seed, start=start_index
        )
    use_pool = engine.parallel and len(chunks) > 1 and shared_memory_available()
    pool = None
    if use_pool:
        slots_needed = engine.max_inflight * max(len(c) for c in chunks)
        pool = SharedFramePool(
            (camera.height, camera.width), np.float32, n_slots=slots_needed
        )
    ctx = _LinkContext(
        timeline=timeline,
        camera=camera,
        decoder=decoder,
        pool=pool,
        collect_telemetry=telemetry is not None,
    )
    # Chunk exports fold into a throwaway collector when the caller takes
    # no telemetry: their spans are still the run's stage timings.
    sink = telemetry if telemetry is not None else Telemetry(track="main")
    by_index: dict[int, tuple[CapturedFrame, BlockObservation]] = {}
    if telemetry is not None:
        telemetry.metrics.counter("exec.chunks", scope=EXEC).inc(len(chunks))
        if pool is not None:
            telemetry.metrics.gauge("exec.shm_slots").set(pool.n_slots)

    def prepare(_i: int, task: _ChunkTask) -> _ChunkTask:
        if pool is None or task.slots is not None:
            return task
        prepared = replace(
            task, slots=tuple(pool.acquire() for _ in range(len(task.chunk)))
        )
        if telemetry is not None:
            telemetry.metrics.gauge("exec.shm_peak_occupancy").set(
                pool.n_slots - pool.n_free
            )
        return prepared

    def drain(_i: int, result: _ChunkResult) -> None:
        sink.merge_export(result.telemetry)
        with sink.tracer.span("transfer", category=EXEC):
            for record in result.records:
                if record.slot is not None:
                    pixels = pool.read(record.slot, copy=True)
                    pool.release(record.slot)
                else:
                    pixels = record.pixels
                by_index[record.index] = (
                    CapturedFrame(
                        pixels=pixels,
                        index=record.index,
                        start_time_s=record.start_time_s,
                        mid_exposure_s=record.mid_exposure_s,
                    ),
                    record.observation,
                )

    try:
        engine.map(
            _capture_chunk,
            [_ChunkTask(chunk=c) for c in chunks],
            context=ctx,
            on_result=drain,
            prepare=prepare,
        )
    finally:
        if pool is not None:
            pool.close()
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
