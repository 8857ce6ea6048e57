"""The parallel execution engine: scheduling, shared memory, robustness.

The load-bearing guarantees tested here:

* **Determinism** -- ``run_link(workers=4)`` produces *bit-identical*
  captures, verdicts and stats to ``workers=1`` (spawn-keyed per-capture
  RNG streams, order-independent assembly).
* **Robustness** -- a worker process dying breaks the pool; the engine
  rebuilds it a bounded number of times and then completes the work
  in-process, so callers always get their results.
* **Resource hygiene** -- the shared-memory pool recycles slots and
  survives exhaustion/double-release misuse loudly.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_link
from repro.obs import SpanRecord, SpanTracer, stage_totals
from repro.runtime import (
    ExecutionEngine,
    RuntimeReport,
    SharedFramePool,
    plan_chunks,
    shared_memory_available,
    spawn_rng,
)
from repro.runtime.engine import resolve_start_method


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestPlanChunks:
    def test_covers_range_exactly_without_overlap(self):
        chunks = plan_chunks(23, n_chunks=5, start=7)
        items = [i for c in chunks for i in c.items]
        assert items == list(range(7, 30))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(c) for c in plan_chunks(23, n_chunks=5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_chunk_size_variant(self):
        chunks = plan_chunks(10, chunk_size=4)
        assert [len(c) for c in chunks] == [4, 3, 3]

    def test_more_chunks_than_items_collapses(self):
        assert len(plan_chunks(3, n_chunks=8)) == 3

    def test_rejects_both_arguments(self):
        with pytest.raises(ValueError):
            plan_chunks(10, n_chunks=2, chunk_size=3)

    def test_plan_is_deterministic(self):
        assert plan_chunks(17, n_chunks=4, seed=9) == plan_chunks(17, n_chunks=4, seed=9)


class TestSpawnRng:
    def test_same_key_same_stream(self):
        a = spawn_rng(3, 5).standard_normal(8)
        b = spawn_rng(3, 5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = spawn_rng(3, 5).standard_normal(8)
        b = spawn_rng(3, 6).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_chunk_item_rng_matches_direct_spawn(self):
        chunk = plan_chunks(10, n_chunks=2, seed=11)[1]
        item = chunk.start
        assert np.array_equal(
            chunk.item_rng(item).standard_normal(4),
            spawn_rng(11, item).standard_normal(4),
        )

    def test_item_outside_chunk_rejected(self):
        chunk = plan_chunks(10, n_chunks=2, seed=11)[0]
        with pytest.raises(ValueError):
            chunk.item_rng(chunk.stop)


# ----------------------------------------------------------------------
# Shared-memory pool
# ----------------------------------------------------------------------
@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory here")
class TestSharedFramePool:
    def test_roundtrip(self):
        with SharedFramePool((4, 6), np.float32, n_slots=2) as pool:
            frame = np.arange(24, dtype=np.float32).reshape(4, 6)
            ref = pool.acquire()
            pool.write(ref, frame)
            assert np.array_equal(pool.read(ref), frame)

    def test_slots_recycle(self):
        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            ref = pool.acquire()
            assert pool.n_free == 0
            pool.release(ref)
            assert pool.n_free == 1
            pool.acquire()  # usable again

    def test_exhaustion_raises(self):
        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            pool.acquire()
            with pytest.raises(RuntimeError, match="exhausted"):
                pool.acquire()

    def test_double_release_rejected(self):
        with SharedFramePool((2, 2), np.float32, n_slots=2) as pool:
            ref = pool.acquire()
            pool.release(ref)
            with pytest.raises(ValueError, match="twice"):
                pool.release(ref)

    def test_shape_mismatch_rejected(self):
        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            ref = pool.acquire()
            with pytest.raises(ValueError, match="fit"):
                pool.write(ref, np.zeros((3, 3), dtype=np.float32))

    def test_read_copy_survives_slot_reuse(self):
        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            ref = pool.acquire()
            pool.write(ref, np.full((2, 2), 5.0, dtype=np.float32))
            copied = pool.read(ref, copy=True)
            pool.release(ref)
            ref2 = pool.acquire()
            pool.write(ref2, np.zeros((2, 2), dtype=np.float32))
            assert np.all(copied == 5.0)


class TestSharedFramePoolRefcounts:
    def test_retain_defers_recycling_until_last_release(self):
        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            ref = pool.acquire()
            assert pool.refcount(ref) == 1
            pool.retain(ref)
            pool.retain(ref)
            assert pool.refcount(ref) == 3
            pool.release(ref)
            pool.release(ref)
            assert pool.n_free == 0  # still one reader holding on
            pool.release(ref)
            assert pool.n_free == 1
            assert pool.refcount(ref) == 0

    def test_retain_of_free_slot_rejected(self):
        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            ref = pool.acquire()
            pool.release(ref)
            with pytest.raises(ValueError, match="acquire it before retaining"):
                pool.retain(ref)

    def test_release_past_zero_rejected(self):
        with SharedFramePool((2, 2), np.float32, n_slots=2) as pool:
            ref = pool.acquire()
            pool.retain(ref)
            pool.release(ref)
            pool.release(ref)
            with pytest.raises(ValueError, match="released twice"):
                pool.release(ref)

    def test_out_of_range_slot_rejected(self):
        from repro.runtime.shm import SlotRef

        with SharedFramePool((2, 2), np.float32, n_slots=1) as pool:
            bogus = SlotRef(slot=5, shape=(2, 2), dtype="<f4")
            with pytest.raises(ValueError, match="outside pool"):
                pool.refcount(bogus)

    def test_concurrent_readers_of_one_slot(self):
        # The broadcast-session pattern: one writer fills a slot once,
        # many readers pin it (retain), read zero-copy, and release.
        # The slot must never recycle while any reader holds it, and
        # every reader must see the written bytes intact.
        import threading

        with SharedFramePool((16, 16), np.float32, n_slots=1) as pool:
            frame = np.arange(256, dtype=np.float32).reshape(16, 16)
            ref = pool.acquire()
            pool.write(ref, frame)

            n_readers = 8
            start = threading.Barrier(n_readers)
            errors: list[str] = []
            mid_read_free: list[int] = []

            def read_slot() -> None:
                start.wait()
                pool.retain(ref)
                try:
                    view = pool.read(ref, copy=False)
                    if not np.array_equal(view, frame):
                        errors.append("reader saw torn data")
                    mid_read_free.append(pool.n_free)
                finally:
                    pool.release(ref)

            threads = [threading.Thread(target=read_slot) for _ in range(n_readers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert errors == []
            assert mid_read_free == [0] * n_readers  # never recycled mid-read
            assert pool.refcount(ref) == 1  # only the writer's reference left
            pool.release(ref)
            assert pool.n_free == 1


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _square(item, context):
    return item * item + (context or 0)


def _crash_in_worker(item, context):
    """Dies hard inside pool workers; succeeds in the parent process."""
    if item == "bomb" and multiprocessing.parent_process() is not None:
        os._exit(13)
    return f"ok:{item}"


def _raise_value_error(item, context):
    raise ValueError(f"bad item {item}")


def _sleep_if_slow(item, context):
    if item == "slow":
        time.sleep(2.0)
    return f"ok:{item}"


def _die_in_pool(item, context):
    """Dies hard inside pool workers for every item."""
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return f"ok:{item}"


class TestExecutionEngine:
    def test_serial_map(self):
        engine = ExecutionEngine(workers=1)
        assert engine.map(_square, [1, 2, 3], context=10) == [11, 14, 19]
        assert engine.stats.mode == "serial"

    @pytest.mark.skipif(
        resolve_start_method() is None, reason="no multiprocessing here"
    )
    def test_parallel_map_matches_serial(self):
        serial = ExecutionEngine(workers=1).map(_square, list(range(9)))
        parallel = ExecutionEngine(workers=3).map(_square, list(range(9)))
        assert parallel == serial

    def test_on_result_sees_every_item(self):
        seen = {}
        ExecutionEngine(workers=1).map(
            _square, [2, 4], on_result=lambda i, r: seen.setdefault(i, r)
        )
        assert seen == {0: 4, 1: 16}

    def test_prepare_replaces_item(self):
        engine = ExecutionEngine(workers=1)
        out = engine.map(_square, [1, 2], prepare=lambda i, item: item + 1)
        assert out == [4, 9]

    @pytest.mark.skipif(
        resolve_start_method() is None, reason="no multiprocessing here"
    )
    def test_worker_crash_retries_then_falls_back_serial(self):
        engine = ExecutionEngine(workers=2, max_retries=1)
        out = engine.map(_crash_in_worker, ["a", "bomb", "b"])
        assert out == ["ok:a", "ok:bomb", "ok:b"]
        assert engine.stats.mode == "serial-fallback"
        assert engine.stats.crashes >= 1
        assert engine.stats.retries == 1
        assert engine.stats.serial_items >= 1

    @pytest.mark.skipif(
        resolve_start_method() is None, reason="no multiprocessing here"
    )
    def test_worker_crash_without_fallback_raises(self):
        from concurrent.futures.process import BrokenProcessPool

        engine = ExecutionEngine(workers=2, max_retries=0, fallback_serial=False)
        with pytest.raises(BrokenProcessPool):
            engine.map(_crash_in_worker, ["bomb"] * 2 + ["c"])

    def test_ordinary_exception_propagates_unretried(self):
        engine = ExecutionEngine(workers=1)
        with pytest.raises(ValueError, match="bad item"):
            engine.map(_raise_value_error, [1])

    @pytest.mark.skipif(
        resolve_start_method() is None, reason="no multiprocessing here"
    )
    def test_tick_abandons_stuck_items(self):
        abandoned = []
        engine = ExecutionEngine(workers=2)
        out = engine.map(
            _sleep_if_slow,
            ["slow", "a", "b"],
            tick=lambda inflight: [i for i in inflight if i == 0],
            tick_interval_s=0.05,
            on_abandon=lambda i, reason: abandoned.append((i, reason)),
        )
        assert out[0] is None  # the stuck item's result is discarded
        assert out[1:] == ["ok:a", "ok:b"]
        assert abandoned == [(0, "tick")]
        assert engine.stats.abandoned_items == [0]

    def test_serial_tick_runs_between_items(self):
        ticks = []
        engine = ExecutionEngine(workers=1)
        out = engine.map(
            _square, [1, 2, 3], tick=lambda inflight: ticks.append(inflight) or []
        )
        assert out == [1, 4, 9]
        assert ticks == [(), (), ()]  # once per item, nothing abandonable

    def test_dispatch_gate_halts_remaining_items(self):
        calls = []
        engine = ExecutionEngine(workers=1)
        out = engine.map(
            _square,
            [1, 2, 3, 4],
            dispatch_gate=lambda: calls.append(None) or len(calls) <= 2,
        )
        assert out == [1, 4, None, None]
        assert engine.stats.undispatched_items == [2, 3]

    @pytest.mark.skipif(
        resolve_start_method() is None, reason="no multiprocessing here"
    )
    def test_crash_budget_abandons_instead_of_serial_fallback(self):
        abandoned = []
        engine = ExecutionEngine(workers=2, max_retries=4)
        # Two items: a single item would take the serial shortcut and
        # never exercise the pool crash budget.
        out = engine.map(
            _die_in_pool,
            ["x", "y"],
            on_abandon=lambda i, reason: abandoned.append((i, reason)),
            abandon_after_crashes=1,
        )
        assert out == [None, None]
        assert sorted(abandoned) == [(0, "crash"), (1, "crash")]
        assert sorted(engine.stats.abandoned_items) == [0, 1]
        assert engine.stats.mode == "parallel"  # no serial fallback ran
        assert engine.stats.serial_items == 0
        assert all(
            engine.stats.crash_counts[index] == 1 for index in (0, 1)
        )


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def _span(name: str, dur_s: float | None, cpu_s: float | None) -> SpanRecord:
    return SpanRecord(
        name=name,
        category="work",
        track="main",
        span_id=1,
        parent_id=None,
        start_s=0.0,
        dur_s=dur_s,
        attrs={},
        cpu_s=cpu_s,
    )


class TestProfiler:
    def test_stage_totals_count_calls_per_name(self):
        tracer = SpanTracer()
        with tracer.span("render"):
            pass
        with tracer.span("render"):
            pass
        with tracer.span("decide"):
            pass
        totals = stage_totals(tracer.records)
        assert list(totals) == ["render", "decide"]
        assert totals["render"]["calls"] == 2
        assert totals["decide"]["calls"] == 1
        assert set(totals["render"]) == {"wall_s", "cpu_s", "calls"}
        assert totals["render"]["cpu_s"] >= 0.0

    def test_stage_totals_skip_instant_events(self):
        tracer = SpanTracer()
        with tracer.span("decide"):
            tracer.event("heal.resync", capture=3)
        assert set(stage_totals(tracer.records)) == {"decide"}

    def test_stage_totals_sum_wall_and_cpu(self):
        totals = stage_totals(
            [_span("render", 1.5, 0.5), _span("render", 0.5, 0.25), _span("score", 2.0, None)]
        )
        assert totals["render"] == {"wall_s": 2.0, "cpu_s": 0.75, "calls": 2}
        # A record without a CPU reading (an old repro.obs/1 file) adds 0 CPU.
        assert totals["score"] == {"wall_s": 2.0, "cpu_s": 0.0, "calls": 1}

    def test_report_merge_sums_stage_dicts(self):
        def report(wall_s, calls):
            return RuntimeReport(
                mode="serial", workers=1, chunks=1, frames=calls, bits=0, elapsed_s=wall_s,
                stages={"render": {"wall_s": wall_s, "cpu_s": wall_s / 2, "calls": calls}},
            )

        merged = RuntimeReport.merge([report(1.0, 3), None, report(0.5, 2)])
        assert merged.stages == {"render": {"wall_s": 1.5, "cpu_s": 0.75, "calls": 5}}

    def test_report_rates_and_merge(self):
        r1 = RuntimeReport(
            mode="parallel", workers=2, chunks=2, frames=10, bits=800, elapsed_s=2.0
        )
        r2 = RuntimeReport(
            mode="parallel", workers=2, chunks=1, frames=5, bits=400, elapsed_s=1.0
        )
        assert r1.frames_per_s == pytest.approx(5.0)
        merged = RuntimeReport.merge([r1, r2])
        assert merged.frames == 15
        assert merged.bits == 1200
        assert merged.elapsed_s == pytest.approx(3.0)
        assert merged.mode == "parallel"
        assert "frames_per_s" in merged.as_dict()

    def test_merge_empty_is_none(self):
        assert RuntimeReport.merge([]) is None


# ----------------------------------------------------------------------
# End-to-end determinism: the headline contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_setup():
    scale = ExperimentScale.quick()
    return scale, scale.config(amplitude=20.0, tau=12)


class TestParallelDeterminism:
    @pytest.mark.skipif(
        resolve_start_method() is None, reason="no multiprocessing here"
    )
    def test_workers4_bit_identical_to_serial(self, quick_setup):
        scale, config = quick_setup
        serial = run_link(
            config, scale.video("gray"), camera=scale.camera(), seed=1, workers=1
        )
        parallel = run_link(
            config, scale.video("gray"), camera=scale.camera(), seed=1, workers=4
        )
        assert serial.stats == parallel.stats
        assert len(serial.captures) == len(parallel.captures)
        for a, b in zip(serial.captures, parallel.captures):
            assert a.index == b.index
            assert a.start_time_s == b.start_time_s
            assert np.array_equal(a.pixels, b.pixels)
        for a, b in zip(serial.decoded, parallel.decoded):
            assert a.index == b.index
            assert np.array_equal(a.bits, b.bits)
            assert np.array_equal(a.noise_map, b.noise_map)
            assert a.threshold == b.threshold

    def test_default_workers_none_equals_workers1(self, quick_setup):
        scale, config = quick_setup
        default = run_link(config, scale.video("gray"), camera=scale.camera(), seed=2)
        explicit = run_link(
            config, scale.video("gray"), camera=scale.camera(), seed=2, workers=1
        )
        assert default.stats == explicit.stats
        assert all(
            np.array_equal(a.pixels, b.pixels)
            for a, b in zip(default.captures, explicit.captures)
        )

    def test_runtime_report_attached(self, quick_setup):
        scale, config = quick_setup
        run = run_link(config, scale.video("gray"), camera=scale.camera(), seed=1)
        report = run.runtime
        assert report is not None
        assert report.mode == "serial"
        assert report.frames == len(run.captures)
        assert report.frames_per_s > 0
        assert {"render", "observe", "decide", "score"} <= set(report.stages)
