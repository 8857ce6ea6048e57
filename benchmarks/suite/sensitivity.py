"""Check that a known slowdown survives the rescaling to reference host speed.

    python3 benchmarks/suite/sensitivity.py --workload fleet --layer resample

``frames_per_s`` is rescaled by a calibration kernel that runs inside the
measured process (``worker.HostClock``).  A change that slows the program
may also slow that kernel -- they share caches, heap and memory
bandwidth -- and so hide part of its own slowdown.  This script adds
known work: it runs the workload alternately as it is and with every call
of one pure layer made twice (``layers.doubled``), each in a fresh worker
process, in the order ABBA so a steady drift of the host cancels.  The
layer's self-time share ``s`` in the committed traced baseline
(``results/<workload>-trace.json``) predicts the drop in frame rate,
``s / (1 + s)``.  The script prints the median drop over the pairs,
rescaled and as timed, and exits 1 if the rescaled drop misses the
predicted one by more than a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import DEADLINE_S, HERE, WORKLOADS, BenchError, frame_rates, run_worker

#: How far the rescaled drop may be from the predicted one, as a share of it.
TOLERANCE = 1 / 3
#: Pairs of runs, and the arguments of each run (seed 1, as in the traced baseline).
PAIRS = 4
RUN_ARGS = ["--seed", "1", "--seconds", "10"]


def rates(args: list[str]) -> tuple[float, float]:
    """Median frames/s of one worker run: at reference host speed, and as timed."""
    result, _ = run_worker(args, time.perf_counter() + DEADLINE_S)
    rescaled, timed = frame_rates(result["reps"])
    if not rescaled:
        raise BenchError(f"worker {args} had no successful repetition")
    return statistics.median(rescaled), statistics.median(timed)


def predicted_drop(workload: str, layer: str) -> tuple[float, float]:
    """The layer's share in the traced baseline, and the frame-rate drop it predicts."""
    with open(HERE / "results" / f"{workload}-trace.json", encoding="utf-8") as handle:
        share = json.load(handle)["metrics"][f"{layer}.share"]["value"]
    if share <= 0:
        raise BenchError(f"{workload} does not call {layer}")
    return share, share / (1 + share)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="fleet", choices=WORKLOADS)
    parser.add_argument("--layer", default="resample")
    args = parser.parse_args(argv)
    try:
        share, predicted = predicted_drop(args.workload, args.layer)
        plain = ["--workload", args.workload, *RUN_ARGS]
        doubled = [*plain, "--double", args.layer]
        drops: list[tuple[float, float]] = []
        for pair in range(PAIRS):
            if pair % 2 == 0:
                base, slow = rates(plain), rates(doubled)
            else:
                slow, base = rates(doubled), rates(plain)
            drops.append((1 - slow[0] / base[0], 1 - slow[1] / base[1]))
            print(f"pair {pair}: drop {drops[-1][0]:.1%} rescaled, {drops[-1][1]:.1%} as timed")
    except BenchError as exc:
        print(f"sensitivity check failed: {exc}", file=sys.stderr)
        return 1
    rescaled = statistics.median(d[0] for d in drops)
    timed = statistics.median(d[1] for d in drops)
    kept = abs(rescaled - predicted) <= TOLERANCE * predicted
    print(
        f"{args.workload}, {args.layer} doubled (share {share:.1%}): predicted drop "
        f"{predicted:.1%}; median over {len(drops)} pairs {rescaled:.1%} rescaled, "
        f"{timed:.1%} as timed -> {'KEPT' if kept else 'NOT KEPT'}"
    )
    return 0 if kept else 1


if __name__ == "__main__":
    raise SystemExit(main())
