"""Runtime engine throughput: worker-count sweep on the standard gray link.

The reference workload is the 64-frame gray-video link at benchmark
scale (the clip every Figure-7 gray cell uses, lengthened to 64 content
frames so the pool has enough captures to amortise its fork cost).  The
sweep runs it serially and at increasing worker counts, checks that
every parallel run decodes *bit-identically* to serial, and writes a
machine-readable throughput record -- the repo's first standing perf
datapoint (CI runs the quick mode on every PR and uploads the JSON).

Expectations scale with the hardware: per-worker CPU overhead is the
per-chunk timeline-cache warmup (~25-30 % at 4 workers), so a >= 2x
wall-clock speedup at ``--workers 4`` needs >= 4 usable cores.  On
fewer cores the sweep still validates determinism and records the
honest numbers; the speedup assertion is gated on the visible CPU
count, never faked.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_runtime.py --quick --out runtime.json

or under pytest (quick mode)::

    pytest benchmarks/bench_runtime.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_link
from repro.obs.live import LiveCollector, install_live
from repro.tools.perf import bench_envelope, usable_cpus

#: The acceptance workload: 64 gray content frames at benchmark scale.
STANDARD_FRAMES = 64
STANDARD_WORKER_COUNTS = (1, 2, 4)


def sweep_runtime(
    scale_name: str = "benchmark",
    n_video_frames: int = STANDARD_FRAMES,
    worker_counts: tuple[int, ...] = STANDARD_WORKER_COUNTS,
    seed: int = 1,
) -> dict:
    """Run the gray link once per worker count; return the throughput record."""
    scale = replace(
        getattr(ExperimentScale, scale_name)(), n_video_frames=n_video_frames
    )
    config = scale.config(amplitude=20.0, tau=12)
    video = scale.video("gray")
    camera = scale.camera()

    runs = []
    reference = None
    for workers in worker_counts:
        wall0 = time.perf_counter()
        run = run_link(
            config,
            video,
            camera=camera,
            seed=seed,
            workers=None if workers <= 1 else workers,
        )
        elapsed_s = time.perf_counter() - wall0
        if reference is None:
            reference = run
        identical = run.stats == reference.stats and all(
            np.array_equal(a.pixels, b.pixels)
            for a, b in zip(run.captures, reference.captures)
        )
        report = run.runtime
        runs.append(
            {
                "workers": workers,
                "mode": report.mode,
                "elapsed_s": elapsed_s,
                "frames": len(run.captures),
                "frames_per_s": len(run.captures) / elapsed_s,
                "bits_per_s": report.bits / elapsed_s,
                "speedup_vs_serial": runs[0]["elapsed_s"] / elapsed_s if runs else 1.0,
                "bit_identical_to_serial": bool(identical),
                "retries": report.retries,
                "stages": report.stages,
            }
        )
    return {
        "bench": "runtime",
        "scale": scale_name,
        "n_video_frames": n_video_frames,
        "seed": seed,
        "usable_cpus": usable_cpus(),
        "throughput_kbps": reference.stats.throughput_kbps,
        "runs": runs,
    }


def format_report(record: dict) -> str:
    """The human-readable table printed next to the JSON."""
    lines = [
        f"runtime sweep: {record['scale']} scale, "
        f"{record['n_video_frames']} content frames, "
        f"{record['usable_cpus']} usable CPUs",
        f"{'workers':>8s} {'mode':>16s} {'elapsed':>9s} {'frames/s':>9s} "
        f"{'speedup':>8s} {'identical':>10s}",
    ]
    for run in record["runs"]:
        lines.append(
            f"{run['workers']:8d} {run['mode']:>16s} {run['elapsed_s']:8.2f}s "
            f"{run['frames_per_s']:9.1f} {run['speedup_vs_serial']:7.2f}x "
            f"{'yes' if run['bit_identical_to_serial'] else 'NO':>10s}"
        )
    return "\n".join(lines)


def measure_telemetry_overhead(
    scale_name: str = "quick",
    n_video_frames: int = 32,
    seed: int = 1,
    repeats: int = 3,
) -> dict:
    """Serial-link wall clock with telemetry collection off vs on.

    Uses best-of-*repeats* timings (the standard noise filter for
    micro-overheads) after one warmup run.  Stage spans run in both legs
    (they are the run's stage timings), so the ratio is the cost of the
    ``repro.obs`` counters and histogram fills along the pipeline plus
    live telemetry: the "on" leg also runs a 1 Hz live snapshot collector
    streaming to disk -- the full observability stack a ``--snapshot-out``
    run pays for.
    """
    scale = replace(
        getattr(ExperimentScale, scale_name)(), n_video_frames=n_video_frames
    )
    config = scale.config(amplitude=20.0, tau=12)
    video = scale.video("gray")
    camera = scale.camera()

    def one(collect: bool) -> float:
        wall0 = time.perf_counter()
        run_link(config, video, camera=camera, seed=seed, collect_telemetry=collect)
        return time.perf_counter() - wall0

    def one_live() -> float:
        with tempfile.TemporaryDirectory() as tmp:
            collector = LiveCollector(
                interval_s=1.0, snapshot_path=os.path.join(tmp, "live.jsonl")
            )
            install_live(collector)
            try:
                with collector:
                    return one(True)
            finally:
                install_live(None)

    one(False)  # warmup: caches, imports
    off_s = min(one(False) for _ in range(repeats))
    on_s = min(one_live() for _ in range(repeats))
    return {
        "scale": scale_name,
        "n_video_frames": n_video_frames,
        "repeats": repeats,
        "telemetry_off_s": off_s,
        "telemetry_on_s": on_s,
        "overhead_ratio": max(0.0, on_s / off_s - 1.0),
    }


# ----------------------------------------------------------------------
# pytest entry point (quick mode -- this is what CI smoke-runs)
# ----------------------------------------------------------------------
def test_runtime_worker_sweep(benchmark, emit, results_dir):
    from conftest import run_once

    record = run_once(
        benchmark,
        lambda: sweep_runtime(
            scale_name="quick", n_video_frames=32, worker_counts=(1, 2, 4)
        ),
    )
    emit("bench_runtime_quick", format_report(record))
    bench_envelope(record, bench="runtime", quick=True)
    with open(os.path.join(results_dir, "bench_runtime_quick.json"), "w") as f:
        json.dump(record, f, indent=2)
    # The determinism contract holds on any machine.
    assert all(run["bit_identical_to_serial"] for run in record["runs"])
    # Wall-clock wins need real cores; only then is the 2x bar meaningful.
    if record["usable_cpus"] >= 4:
        by_workers = {run["workers"]: run for run in record["runs"]}
        assert by_workers[4]["speedup_vs_serial"] >= 1.5


def test_telemetry_overhead_within_budget(benchmark, emit, results_dir):
    from conftest import run_once

    record = run_once(benchmark, lambda: measure_telemetry_overhead())
    emit(
        "bench_telemetry_overhead",
        f"telemetry overhead: off={record['telemetry_off_s']:.3f}s "
        f"on={record['telemetry_on_s']:.3f}s "
        f"(+{record['overhead_ratio'] * 100:.2f}%)",
    )
    bench_envelope(record, bench="telemetry_overhead", quick=True)
    with open(os.path.join(results_dir, "bench_telemetry_overhead.json"), "w") as f:
        json.dump(record, f, indent=2)
    # The observability budget: collection costs at most 5% wall clock.
    assert record["overhead_ratio"] <= 0.05


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/bench_runtime.py",
        description="Sweep worker counts on the standard gray-video link.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick scale with 32 content frames (the CI smoke mode)",
    )
    parser.add_argument(
        "--frames", type=int, default=None, help="content frames (default 64, quick 32)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(STANDARD_WORKER_COUNTS),
        help="worker counts to sweep (1 = serial reference)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "results", "bench_runtime.json"),
        help="where the throughput JSON goes",
    )
    args = parser.parse_args(argv)
    scale_name = "quick" if args.quick else "benchmark"
    n_frames = args.frames if args.frames is not None else (32 if args.quick else STANDARD_FRAMES)
    record = sweep_runtime(
        scale_name=scale_name,
        n_video_frames=n_frames,
        worker_counts=tuple(args.workers),
        seed=args.seed,
    )
    overhead = measure_telemetry_overhead(
        scale_name=scale_name, n_video_frames=min(n_frames, 32), seed=args.seed
    )
    record["telemetry_overhead"] = overhead
    print(format_report(record))
    print(
        f"telemetry overhead: off={overhead['telemetry_off_s']:.3f}s "
        f"on={overhead['telemetry_on_s']:.3f}s "
        f"(+{overhead['overhead_ratio'] * 100:.2f}%)"
    )
    bench_envelope(record, bench="runtime", quick=args.quick)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
    print(f"wrote {args.out}")
    if not all(run["bit_identical_to_serial"] for run in record["runs"]):
        print("FAIL: parallel output diverged from serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
