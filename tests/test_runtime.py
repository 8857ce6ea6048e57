"""The parallel execution engine: scheduling, determinism, robustness.

The load-bearing guarantees tested here:

* **Determinism** -- ``run_link(workers=4)`` produces *bit-identical*
  captures, verdicts and stats to ``workers=1`` (spawn-keyed per-capture
  RNG streams, order-independent assembly).
* **Robustness** -- a worker process dying breaks the pool; the engine
  rebuilds it a bounded number of times and then completes the work
  in-process, so callers always get their results.  Workers exit when
  the process owning their pool dies.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_link
from repro.obs import SpanRecord, SpanTracer, stage_totals
from repro.runtime import ExecutionEngine, RuntimeReport, plan_chunks, spawn_rng
from repro.runtime.engine import resolve_start_method


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestPlanChunks:
    def test_covers_range_exactly_without_overlap(self):
        chunks = plan_chunks(23, n_chunks=5)
        items = [i for c in chunks for i in c.items]
        assert items == list(range(23))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(c) for c in plan_chunks(23, n_chunks=5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_more_chunks_than_items_collapses(self):
        assert len(plan_chunks(3, n_chunks=8)) == 3

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


#: Owns an idle two-worker pool: the first drained result prints both
#: worker pids, then the owner hangs there until it is killed.
_IDLE_POOL_OWNER = """
import multiprocessing, time
from repro.runtime import ExecutionEngine

def echo(item, context):
    return item

def report_and_hang(index, result):
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    time.sleep(60)

ExecutionEngine(workers=2).map(echo, [1, 2], on_result=report_and_hang)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is a live process; a zombie awaiting its reaper is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


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

    @pytest.mark.skipif(
        resolve_start_method() != "fork" or not os.path.isdir("/proc"),
        reason="needs fork and /proc",
    )
    def test_workers_exit_when_owner_is_killed(self):
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", _IDLE_POOL_OWNER],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            # The workers hold the pipe open too, so bound the wait.
            ready, _, _ = select.select([owner.stdout], [], [], 30.0)
            workers = [int(pid) for pid in owner.stdout.readline().split()] if ready else []
        finally:
            owner.kill()  # SIGKILL: the pool gets no shutdown
            owner.wait()
            owner.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []


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
