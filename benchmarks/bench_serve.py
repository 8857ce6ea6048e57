"""Broadcast fan-out economics: render once, serve a fleet.

The claim under test is ``repro.serve``'s reason to exist: a carousel
session renders exactly one steady-state cycle of emitted fields, and
every receiver after that is a cache hit -- so serving N receivers costs
one cycle of rendering plus N decodes, where the naive architecture
re-renders the emitted stream once per receiver.

The benchmark runs a fleet against one :class:`BroadcastSession` and
reports the **reuse ratio**: fan-out render-cache reads divided by
fields actually rendered.  Every one of those reads would have been a
render under per-receiver re-rendering, so the ratio *is* the render
cost multiplier of the naive design.  To keep the wall-clock claim
honest the benchmark also times real re-rendering on a small sample of
fresh (un-memoized) :class:`DisplayTimeline`\\ s and projects what the
full fleet would have paid.

The render-cache hit/miss counters also flow through ``repro.obs`` --
the benchmark asserts the exported metrics agree with the report, so
the standing CI artifact carries the same numbers a fleet operator
would see in telemetry.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_serve.py --out serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --quick

or under pytest (quick mode -- this is what CI smoke-runs)::

    pytest benchmarks/bench_serve.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.analysis.experiments import ExperimentScale
from repro.display.scheduler import DisplayTimeline
from repro.runtime import usable_cpus
from repro.serve import (
    BroadcastSession,
    deterministic_payload,
    parse_cohorts,
    run_fleet,
)

#: The acceptance fleet: 256 receivers across a near and a far cohort.
STANDARD_RECEIVERS = 256
QUICK_RECEIVERS = 16
#: Fresh timelines timed for the re-render projection.
BASELINE_SAMPLE = 2
#: The acceptance bar: emitted-frame reuse at the standard fleet size.
REUSE_RATIO_BAR = 10.0


def _cohort_spec(n_receivers: int, dwell_s: float) -> str:
    near = n_receivers - n_receivers // 4
    far = n_receivers - near
    spec = f"near:n={near},join_spread=0.6,dwell={dwell_s}"
    if far:
        spec += f"|far:n={far},distance=1.3,join_spread=0.6,dwell={dwell_s}"
    return spec


def measure_fleet(
    n_receivers: int = STANDARD_RECEIVERS,
    dwell_s: float = 2.5,
    payload_bytes: int = 64,
    seed: int = 1,
    workers: int | None = None,
) -> dict:
    """Serve one payload to *n_receivers*; return the reuse record."""
    scale = ExperimentScale.quick()
    config = scale.config(amplitude=20.0)
    with BroadcastSession(
        config, scale.video("gray"), deterministic_payload(payload_bytes), session_id=1
    ) as session:
        cohorts = parse_cohorts(_cohort_spec(n_receivers, dwell_s))
        wall0 = time.perf_counter()
        fleet = run_fleet(
            session, cohorts, base_camera=scale.camera(), seed=seed, workers=workers
        )
        fleet_s = time.perf_counter() - wall0
        report = fleet.report
        metrics = fleet.telemetry.metrics

        # What per-receiver re-rendering would cost: every cache read
        # becomes a render on a private timeline.  Time a small sample
        # of fresh timelines over one cycle to price a field render.
        memo = session.prepare(session.cycle_s)
        period = session.period_frames
        sample_fields = 0
        wall0 = time.perf_counter()
        for _ in range(BASELINE_SAMPLE):
            fresh = DisplayTimeline(session.panel, memo.inner.source)
            for index in range(period, 2 * period):
                fresh.frame_average_luminance(index)
                sample_fields += 1
        baseline_s = time.perf_counter() - wall0
        per_field_s = baseline_s / sample_fields

        return {
            "bench": "serve",
            "scale": "quick",
            "payload_bytes": payload_bytes,
            "seed": seed,
            "workers": workers,
            "usable_cpus": usable_cpus(),
            "n_receivers": n_receivers,
            "dwell_s": dwell_s,
            "k": session.k,
            "cycle_packets": session.cycle_packets,
            "period_frames": period,
            "cycle_s": session.cycle_s,
            "fleet": {
                "elapsed_s": fleet_s,
                "delivery_rate": report.delivery_rate,
                "render_reads": report.render_reads,
                "renders": report.renders,
                "reuse_ratio": report.reuse_ratio,
                "obs_cache_hits": metrics["serve.render_cache.hits"]["value"],
                "obs_cache_misses": metrics["serve.render_cache.misses"]["value"],
                "obs_renders": metrics["serve.render_cache.renders"]["value"],
            },
            "rerender_baseline": {
                "sample_timelines": BASELINE_SAMPLE,
                "sample_fields": sample_fields,
                "per_field_s": per_field_s,
                "projected_fleet_render_s": per_field_s * report.render_reads,
                "session_render_s": per_field_s * report.renders,
            },
        }


def format_report(record: dict) -> str:
    """The human-readable table printed next to the JSON."""
    fleet = record["fleet"]
    base = record["rerender_baseline"]
    return "\n".join(
        [
            f"serve fan-out: {record['n_receivers']} receivers, "
            f"{record['payload_bytes']} B payload, "
            f"cycle {record['cycle_packets']} packets "
            f"({record['period_frames']} frames, {record['cycle_s']:.2f} s), "
            f"{record['usable_cpus']} usable CPUs",
            f"  fleet wall clock   {fleet['elapsed_s']:9.2f} s  "
            f"(delivery {fleet['delivery_rate'] * 100:.0f}%)",
            f"  fields rendered    {fleet['renders']:9d}     "
            f"(one steady-state cycle)",
            f"  cache reads        {fleet['render_reads']:9d}",
            f"  reuse ratio        {fleet['reuse_ratio']:9.1f}x",
            f"  re-render baseline {base['projected_fleet_render_s']:9.2f} s "
            f"render time projected from {base['sample_timelines']} fresh "
            f"timelines ({base['per_field_s'] * 1e3:.2f} ms/field)",
        ]
    )


# ----------------------------------------------------------------------
# pytest entry point (quick mode -- this is what CI smoke-runs)
# ----------------------------------------------------------------------
def test_serve_render_reuse(benchmark, emit, results_dir):
    from conftest import run_once

    record = run_once(benchmark, lambda: measure_fleet(QUICK_RECEIVERS))
    emit("bench_serve_quick", format_report(record))
    with open(os.path.join(results_dir, "bench_serve_quick.json"), "w") as f:
        json.dump(record, f, indent=2)
    fleet = record["fleet"]
    # The acceptance bar holds already at the quick fleet size; the
    # 256-receiver script run only pushes the ratio higher.
    assert fleet["reuse_ratio"] >= REUSE_RATIO_BAR
    # The session rendered exactly one steady-state cycle, nothing more.
    assert fleet["renders"] == record["period_frames"]
    # The exported obs counters are the report's numbers, not a parallel
    # bookkeeping that could drift.
    assert fleet["obs_cache_hits"] == fleet["render_reads"]
    assert fleet["obs_renders"] == fleet["renders"]
    assert fleet["delivery_rate"] >= 0.9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help=f"{QUICK_RECEIVERS}-receiver fleet"
    )
    parser.add_argument("--receivers", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)
    n_receivers = args.receivers or (
        QUICK_RECEIVERS if args.quick else STANDARD_RECEIVERS
    )
    record = measure_fleet(n_receivers, seed=args.seed, workers=args.workers)
    print(format_report(record))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
