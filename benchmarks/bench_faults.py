"""Fault matrix: BER / goodput / time-to-resync with healing on and off.

Two stages, both seeded and deterministic:

1. **Link matrix.**  Each (fault kind, severity) cell perturbs the
   standard gray link and decodes it twice -- once with the plain
   decoder (``heal=False``) and once with the self-healing pass -- and
   records BER, goodput and the healed decoder's time to resync after
   the fault onset.
2. **Transport gap.**  The default moderate matrix (``MODERATE_MATRIX``:
   10 % drops, one polarity flip turned 5-frame stall, one exposure
   step, one 0.5 s blackout) hits an ARQ transfer bounded by a
   retransmission budget.  The healing decoder is expected to deliver
   >= 90 % of the payload where the plain decoder stays under 50 % --
   the repo's standing robustness datapoint.

The record holds only seeded quality numbers, no timings, so it is the
same at any worker count.  CI runs the quick mode on every PR and fails
unless it rewrites ``results/bench_faults_quick.json`` byte for byte.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_faults.py --quick --out faults.json

or under pytest (quick mode)::

    pytest benchmarks/bench_faults.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import replace

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_link, run_transport_link
from repro.faults import FaultPlan

#: The default moderate fault matrix the acceptance gap is stated for.
MODERATE_MATRIX = (
    "drop:p=0.10;flip:at=0.2,frames=5;exposure:at=0.6,gain=0.7;"
    "blackout:at=0.55,dur=0.5"
)
#: Transport-gap defaults: payload and retransmission budget are sized so
#: a healing receiver finishes while an unhealed one exhausts the budget.
GAP_PAYLOAD_BYTES = 336
GAP_RETRY_BUDGET = 3
GAP_MAX_ROUNDS = 6

#: The link-matrix cells: (label, spec, onset fraction for resync timing).
FULL_CELLS = (
    ("drop-5%", "drop:p=0.05", None),
    ("drop-10%", "drop:p=0.10", None),
    ("drop-20%", "drop:p=0.20", None),
    ("dup-10%", "dup:p=0.10", None),
    ("reorder-10%", "reorder:p=0.10,span=2", None),
    ("flip-1f", "flip:at=0.5,frames=1", 0.5),
    ("flip-5f", "flip:at=0.5,frames=5", 0.5),
    ("drift-3000ppm", "drift:ppm=3000", None),
    ("jitter-4ms", "jitter:std=4e-3", None),
    ("exposure-0.7", "exposure:at=0.5,gain=0.7", 0.5),
    ("exposure-0.5", "exposure:at=0.5,gain=0.5", 0.5),
    ("ambient-+40", "ambient:at=0.5,add=40", 0.5),
    ("blackout-0.25s", "blackout:at=0.5,dur=0.25", 0.5),
    ("blackout-0.5s", "blackout:at=0.5,dur=0.5", 0.5),
)
QUICK_CELLS = (
    ("drop-10%", "drop:p=0.10", None),
    ("flip-5f", "flip:at=0.5,frames=5", 0.5),
    ("exposure-0.7", "exposure:at=0.5,gain=0.7", 0.5),
    ("blackout-0.5s", "blackout:at=0.5,dur=0.5", 0.5),
)


def _scale(n_video_frames: int) -> ExperimentScale:
    return replace(ExperimentScale.quick(), n_video_frames=n_video_frames)


def sweep_link_matrix(
    cells=QUICK_CELLS,
    n_video_frames: int = 48,
    seed: int = 3,
    plan_seed: int = 11,
    workers: int | None = None,
) -> list[dict]:
    """One record per (cell, heal mode): BER, goodput, time-to-resync."""
    scale = _scale(n_video_frames)
    config = scale.config(amplitude=30.0, tau=12)
    video = scale.video("gray")
    camera = scale.camera()

    records = []
    for label, spec, onset_frac in cells:
        row: dict = {"fault": label, "spec": spec}
        for heal in (False, True):
            plan = FaultPlan.parse(spec, seed=plan_seed)
            run = run_link(
                config,
                video,
                camera=camera,
                seed=seed,
                workers=workers,
                faults=plan,
                heal=heal,
            )
            stats = run.stats
            side = {
                "ber": 1.0 - stats.bit_accuracy,
                "available_gob_ratio": stats.available_gob_ratio,
                "goodput_bps": stats.goodput_bps,
            }
            healing = run.degradation.healing if run.degradation else None
            if heal and healing is not None:
                side["resyncs"] = healing.n_resyncs
                side["excluded_captures"] = healing.excluded_captures
                if onset_frac is not None:
                    onset_s = onset_frac * video.duration_s
                    side["time_to_resync_s"] = healing.time_to_resync_s(onset_s)
            row["heal_on" if heal else "heal_off"] = side
        records.append(row)
    return records


def run_transport_gap(
    n_video_frames: int = 48,
    seed: int = 3,
    plan_seed: int = 11,
    workers: int | None = None,
) -> dict:
    """The moderate-matrix ARQ transfer, healed and unhealed."""
    scale = _scale(n_video_frames)
    config = scale.config(amplitude=30.0, tau=12)
    video = scale.video("gray")
    payload = bytes(i % 251 for i in range(GAP_PAYLOAD_BYTES))

    record: dict = {
        "matrix": MODERATE_MATRIX,
        "payload_bytes": GAP_PAYLOAD_BYTES,
        "retry_budget": GAP_RETRY_BUDGET,
        "max_rounds": GAP_MAX_ROUNDS,
    }
    for heal in (False, True):
        plan = FaultPlan.parse(MODERATE_MATRIX, seed=plan_seed)
        run = run_transport_link(
            config,
            video,
            payload,
            mode="arq",
            camera=scale.camera(),
            seed=seed,
            max_rounds=GAP_MAX_ROUNDS,
            workers=workers,
            faults=plan,
            heal=heal,
            retry_budget=GAP_RETRY_BUDGET,
        )
        degradation = run.degradation
        healing = degradation.healing if degradation else None
        side = {
            "delivered": run.payload == payload,
            "delivered_bytes": degradation.delivered_bytes,
            "recovered_ratio": degradation.recovered_ratio,
            "rounds": run.arq_stats.rounds,
            "retransmissions": run.arq_stats.retransmissions,
            "budget_exhausted": run.arq_stats.budget_exhausted,
            "blackout_rounds": degradation.blackout_rounds,
        }
        if heal and healing is not None:
            side["resyncs"] = healing.n_resyncs
        record["heal_on" if heal else "heal_off"] = side
    return record


def run_bench(
    quick: bool = False,
    seed: int = 3,
    plan_seed: int = 11,
    workers: int | None = None,
) -> dict:
    cells = QUICK_CELLS if quick else FULL_CELLS
    frames = 48 if quick else 72
    return {
        "bench": "faults",
        "quick": quick,
        "seed": seed,
        "plan_seed": plan_seed,
        "n_video_frames": frames,
        "link_matrix": sweep_link_matrix(
            cells, n_video_frames=frames, seed=seed, plan_seed=plan_seed,
            workers=workers,
        ),
        "transport_gap": run_transport_gap(
            n_video_frames=48, seed=seed, plan_seed=plan_seed, workers=workers
        ),
    }


def format_report(record: dict) -> str:
    lines = [
        f"fault matrix ({'quick' if record['quick'] else 'full'}, "
        f"seed={record['seed']}, plan_seed={record['plan_seed']}):",
        f"{'fault':>15s} {'BER off':>9s} {'BER on':>9s} {'goodput off':>12s} "
        f"{'goodput on':>11s} {'resync':>7s}",
    ]
    for row in record["link_matrix"]:
        off, on = row["heal_off"], row["heal_on"]
        resync = on.get("time_to_resync_s")
        lines.append(
            f"{row['fault']:>15s} {off['ber']:9.4f} {on['ber']:9.4f} "
            f"{off['goodput_bps']:10.0f}bp {on['goodput_bps']:9.0f}bp "
            f"{f'{resync:.2f}s' if resync is not None else '-':>7s}"
        )
    gap = record["transport_gap"]
    off, on = gap["heal_off"], gap["heal_on"]
    lines.append(
        f"transport gap (moderate matrix, budget={gap['retry_budget']}): "
        f"heal-on {on['recovered_ratio'] * 100:.0f}% vs "
        f"heal-off {off['recovered_ratio'] * 100:.0f}% of "
        f"{gap['payload_bytes']} B"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry point (quick mode -- this is what CI smoke-runs)
# ----------------------------------------------------------------------
def test_fault_matrix_quick(benchmark, emit, results_dir):
    from conftest import run_once

    record = run_once(benchmark, lambda: run_bench(quick=True))
    emit("bench_faults_quick", format_report(record))
    with open(os.path.join(results_dir, "bench_faults_quick.json"), "w") as f:
        json.dump(record, f, indent=2)
    gap = record["transport_gap"]
    assert gap["heal_on"]["recovered_ratio"] >= 0.9
    assert gap["heal_off"]["recovered_ratio"] < 0.5
    # Healing never makes a faulted link worse in the matrix.
    for row in record["link_matrix"]:
        assert row["heal_on"]["ber"] <= row["heal_off"]["ber"] + 0.02


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/bench_faults.py",
        description="Fault type x severity matrix with healing on/off.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="4-cell matrix on short clips (the CI smoke mode)",
    )
    parser.add_argument("--seed", type=int, default=3, help="capture noise seed")
    parser.add_argument("--plan-seed", type=int, default=11, help="fault plan seed")
    parser.add_argument(
        "--workers", type=int, default=None, help="worker processes per link run"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "results", "bench_faults.json"),
        help="where the fault-matrix JSON goes",
    )
    args = parser.parse_args(argv)
    record = run_bench(
        quick=args.quick, seed=args.seed, plan_seed=args.plan_seed,
        workers=args.workers,
    )
    print(format_report(record))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
    print(f"wrote {args.out}")
    gap = record["transport_gap"]
    ok = (
        gap["heal_on"]["recovered_ratio"] >= 0.9
        and gap["heal_off"]["recovered_ratio"] < 0.5
    )
    if not ok:
        print(
            "FAIL: healing gap not met "
            f"(on={gap['heal_on']['recovered_ratio']:.2f}, "
            f"off={gap['heal_off']['recovered_ratio']:.2f})"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
