"""One workload in one process: set up, repeat for a fixed time, report.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and the BLAS
and OpenMP thread pools pinned to one thread, so the whole load is one
single-threaded process.  The last line of standard output is one JSON
object: the moment set-up finished, peak RSS, and every repetition's
wall time, frame count, digests and simulated quality; a traced run adds
the per-layer metrics and writes its spans as a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path

import numpy as np
from scipy import ndimage

#: Repetitions every run makes, however long one takes (a traced run
#: alternates untraced and traced, so it needs two).
MIN_REPS = 2


class HostClock:
    """How fast the shared host runs while a measured interval runs.

    Other tenants make this host's speed drift by 10-25 % within a minute.
    While :meth:`sampling` is active, a timer signal interrupts the
    measured code every ``INTERVAL_S`` seconds to time a fixed ~5 ms
    kernel that resembles the workloads: a blur, a resample and
    arithmetic on a 480x270 float32 field, then an interpreter-bound loop.
    The kernel uses only NumPy and SciPy, never the program's code, and
    ``run.py`` rescales host time by the mean kernel time to one reference
    host speed.  It does share the process's caches, heap and memory
    bandwidth, so a change that adds work could slow it too and hide part
    of its own slowdown; ``sensitivity.py`` checks that a known slowdown
    survives.  Python runs the handler between bytecodes, so a sample
    that falls due during a long C call is taken when that call returns.
    """

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.field = np.random.default_rng(0).random((270, 480), dtype=np.float32)
        # SciPy loads some routines on first use; do that outside a signal handler.
        self.kernel()

    def kernel(self) -> float:
        """Seconds the fixed kernel takes right now."""
        start = time.perf_counter()
        blurred = ndimage.gaussian_filter(self.field, 1.2, mode="nearest")
        ndimage.zoom(blurred, 2 / 3, order=1)
        np.clip(self.field * np.float32(1.1) + blurred, 0.0, 1.0)
        total = 0
        for i in range(20_000):
            total += i * i % 7
        return time.perf_counter() - start

    @contextmanager
    def sampling(self) -> Iterator[list[float]]:
        """The kernel timings taken while the ``with`` body runs."""
        samples: list[float] = []

        def on_alarm(_signum: int, _frame: object) -> None:
            samples.append(self.kernel())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, samples: list[float]) -> float:
        """Mean kernel time over *samples* (one fresh timing when there are none)."""
        return statistics.mean(samples) if samples else self.kernel()


def measure(workload, seconds: float, clock: HostClock | None, tracer=None) -> list[dict]:
    """Repeat *workload* until another repetition would pass *seconds*.

    An untraced repetition runs under *clock*: its ``wall_s`` excludes the
    kernel's own time and ``host_s`` is the mean kernel time.  With a
    tracer, repetitions alternate untraced and traced, starting untraced,
    with no clock, so the tracing overhead is measured in the same process.
    """
    reps: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        samples: list[float] = []
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.rep(len(reps)):
                    out = workload.run(tracer.op)
            elif clock is not None:
                with clock.sampling() as samples:
                    out = workload.run()
            else:
                out = workload.run()
        except Exception as exc:  # a failing repetition is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            reps.append({"traced": traced, "error": repr(exc)})
        else:
            wall = time.perf_counter() - t0 - sum(samples)
            walls.append(wall)
            reps.append(
                {
                    "traced": traced,
                    "wall_s": wall,
                    "host_s": clock.speed(samples) if clock is not None else None,
                    "frames": out.frames,
                    "digest": out.digest,
                    "ops": [[op.id, op.digest, op.ok] for op in out.ops],
                    "quality": out.quality,
                    "memo_hits": out.memo_hits,
                    "memo_misses": out.memo_misses,
                    "display_frames": len(tracer.display_frames) if traced else 0,
                }
            )
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls) if walls else elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            return reps


def trace_report(tracer, reps: list[dict], trace_out: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced repetitions; writes the Chrome trace."""
    from layers import layer_metrics
    from repro.obs.trace import chrome_trace
    from repro.tools.report import validate_chrome_trace

    done = [rep for rep in reps if "error" not in rep]
    traced = [rep["wall_s"] for rep in done if rep["traced"]]
    untraced = [rep["wall_s"] for rep in done if not rep["traced"]]
    if not traced or not untraced:
        return {}, ["no successful traced and untraced repetition pair"]
    records = tracer.spans.records
    metrics = layer_metrics(
        records,
        n_reps=len(traced),
        display_frames=sum(rep["display_frames"] for rep in done if rep["traced"]),
        memo_hits=sum(rep["memo_hits"] for rep in done if rep["traced"]),
        memo_misses=sum(rep["memo_misses"] for rep in done if rep["traced"]),
        overhead=statistics.median(traced) / statistics.median(untraced) - 1.0,
    )
    trace = chrome_trace(records)
    problems = validate_chrome_trace(trace)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, report set-up time, and exit"
    )
    parser.add_argument(
        "--double",
        metavar="LAYER",
        default=None,
        help="run every call of the pure LAYER twice in the repetitions (see sensitivity.py)",
    )
    args = parser.parse_args(argv)
    if args.double and args.trace_out is not None:
        parser.error("--double and --trace-out do not mix")
    clock = HostClock()
    with clock.sampling() as setup_samples:
        # Imported here, so the host clock samples the program's import.
        from workloads import make_workload

        workload = make_workload(args.workload, args.seed)
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # parent subtracts the moment it started this process.
    result: dict = {
        "ready_at": time.perf_counter() - sum(setup_samples),
        "setup_host_s": clock.speed(setup_samples),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace_out is not None:
        from layers import LayerTracer

        tracer = LayerTracer()
    extra_work: AbstractContextManager[None] = nullcontext()
    if args.double:
        from layers import doubled

        extra_work = doubled(args.double)
    with extra_work:
        reps = measure(workload, args.seconds, None if tracer else clock, tracer)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["reps"] = reps
    if tracer is not None:
        result["layers"], result["trace_problems"] = trace_report(tracer, reps, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
