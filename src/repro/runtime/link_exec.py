"""The photon pipeline on the execution engine.

:func:`map_chunks` is the one fan-out: it maps a worker function over
contiguous, seed-stamped :class:`~repro.runtime.scheduler.WorkChunk`
units on an :class:`~repro.runtime.engine.ExecutionEngine` and folds
each chunk's telemetry export in as the chunk drains.  A link run's
chunks are capture ranges (:func:`execute_link_captures`), a fleet's
are receivers (``repro.serve.fanout.run_fleet``).

A link worker films and observes its captures through
:meth:`~repro.core.pipeline.InFrameReceiver.capture`, each on its own
spawn-keyed RNG, and returns them with its stage spans through the
pool's result queue.  Concatenated in chunk order they are the ordered
stream -- bit-identical to serial execution, because no randomness is
shared across captures (see ``docs/runtime.md`` for the contract).
Chunks are contiguous so each worker's timeline cache stays warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.camera.capture import CapturedFrame
from repro.display.scheduler import DisplayTimeline
from repro.obs import Telemetry
from repro.obs.telemetry import TelemetryDict
from repro.obs.trace import EXEC
from repro.runtime.engine import EngineStats, ExecutionEngine, ResultFn, WorkFn
from repro.runtime.scheduler import WorkChunk, plan_chunks

if TYPE_CHECKING:  # imported lazily to keep repro.runtime free of repro.core
    from repro.core.decoder import BlockObservation
    from repro.core.pipeline import InFrameReceiver
    from repro.faults.plan import CompiledFaults


@dataclass(frozen=True)
class ChunkMap:
    """One fan-out's chunk results in plan order, and what it cost."""

    results: list[Any]
    chunks: int
    stats: EngineStats


def map_chunks(
    func: WorkFn,
    n_items: int,
    context: object,
    seed: int,
    workers: int | None,
    telemetry: Telemetry,
    on_result: ResultFn | None = None,
) -> ChunkMap:
    """Map ``func(chunk, context)`` over contiguous chunks of ``range(n_items)``.

    ``workers in (None, 0, 1)`` runs one chunk in-process; otherwise the
    engine gets two chunks per worker, or one when it cannot build a
    pool.  Two per worker leave slack for stragglers, and every extra
    chunk pays a cold timeline cache again.  Each result's ``telemetry``
    export folds into *telemetry*, in an exec-scoped ``transfer`` span,
    before *on_result* sees it; the plan and the engine's accounting
    land in ``exec.*`` counters.
    """
    engine = ExecutionEngine(workers=workers or 1, telemetry=telemetry)
    chunks = plan_chunks(
        n_items, n_chunks=2 * engine.workers if engine.parallel else 1, seed=seed
    )

    def drain(index: int, result: Any) -> None:
        with telemetry.tracer.span("transfer", category=EXEC):
            telemetry.merge_export(result.telemetry)
        if on_result is not None:
            on_result(index, result)

    results = engine.map(func, chunks, context=context, on_result=drain)
    stats, metrics = engine.stats, telemetry.metrics
    metrics.counter("exec.chunks", scope=EXEC).inc(len(chunks))
    metrics.counter("exec.retries", scope=EXEC).inc(stats.retries)
    metrics.counter("exec.crashes", scope=EXEC).inc(stats.crashes)
    metrics.counter("exec.serial_items", scope=EXEC).inc(stats.serial_items)
    return ChunkMap(results=results, chunks=len(chunks), stats=stats)


@dataclass(frozen=True)
class _LinkContext:
    """Everything a worker needs; inherited whole under a forked pool."""

    timeline: DisplayTimeline
    receiver: InFrameReceiver
    faults: CompiledFaults | None
    collect_telemetry: bool


@dataclass(frozen=True)
class _ChunkResult:
    captures: list[CapturedFrame]
    observations: list[BlockObservation]
    telemetry: TelemetryDict  # the chunk's spans, plus metrics when collected


@dataclass(frozen=True)
class LinkExecution:
    """Ordered outputs of the capture+observe stages, and what they cost."""

    captures: list[CapturedFrame]
    observations: list[BlockObservation]
    chunks: int
    stats: EngineStats


def _capture_chunk(chunk: WorkChunk, ctx: _LinkContext) -> _ChunkResult:  # checks: worker-scope
    """Film and observe every capture of one chunk (worker side)."""
    # A deterministic track name from the chunk plan keeps (track,
    # span_id) unique after the parent merges all chunk exports.
    telemetry = Telemetry(track=f"chunk-{chunk.index:03d}")
    captures, observations = ctx.receiver.capture(
        ctx.timeline, chunk.items, chunk.seed, (), telemetry.tracer, faults=ctx.faults,
        telemetry=telemetry if ctx.collect_telemetry else None,
    )
    return _ChunkResult(captures, observations, telemetry.export())


def execute_link_captures(
    timeline: DisplayTimeline,
    receiver: InFrameReceiver,
    n_frames: int,
    seed: int,
    telemetry: Telemetry,
    workers: int | None = None,
    faults: CompiledFaults | None = None,
    collect_telemetry: bool = True,
) -> LinkExecution:
    """Film and observe *n_frames* camera frames, possibly in parallel.

    Capture ``i`` draws from ``spawn_rng(seed, i)`` on whichever process
    runs it, so in-process and pooled runs give identical results.
    Workers always record ``render``/``observe`` spans on ``chunk-NNN``
    tracks, folded into *telemetry* as chunks drain; with
    *collect_telemetry* they also record per-capture metrics.
    """
    context = _LinkContext(timeline, receiver, faults, collect_telemetry)
    fanout = map_chunks(_capture_chunk, n_frames, context, seed, workers, telemetry)
    return LinkExecution(
        captures=[c for result in fanout.results for c in result.captures],
        observations=[o for result in fanout.results for o in result.observations],
        chunks=fanout.chunks,
        stats=fanout.stats,
    )
