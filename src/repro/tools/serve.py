"""CLI: broadcast one carousel to a simulated receiver fleet.

Example::

    python -m repro.tools.serve --cohorts 'lobby:n=24,join_spread=1.0'
    python -m repro.tools.serve --scale quick --workers 4 --json
    python -m repro.tools.serve \\
        --cohorts 'near:n=16|far:n=8,distance=1.5,faults=drop:p=0.15' \\
        --report-out fleet.json --telemetry-out fleet-telemetry.json
"""

from __future__ import annotations

import argparse
import json
import time

from repro.analysis.experiments import ExperimentScale
from repro.serve import (
    BroadcastSession,
    CohortSpecError,
    deterministic_payload,
    parse_cohorts,
    run_fleet,
)
from repro.tools.simulate import (
    LiveSession,
    add_live_arguments,
    add_telemetry_argument,
    write_telemetry,
)

#: Two cohorts, one faulted -- a representative default fleet.
_DEFAULT_COHORTS = (
    "near:n=6,join_spread=0.8"
    "|far:n=4,distance=1.4,join_spread=0.8,faults=drop:p=0.1"
)


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description="Serve one InFrame broadcast carousel to a fleet of "
        "simulated receivers (render-once fan-out).",
    )
    parser.add_argument(
        "--video",
        choices=("gray", "dark-gray", "video"),
        default="gray",
        help="looping display content (the paper's clips)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "benchmark", "full"),
        default="quick",
        help="spatial scale of the experiment",
    )
    parser.add_argument("--delta", type=float, default=20.0, help="chessboard amplitude")
    parser.add_argument(
        "--payload-bytes",
        type=int,
        default=96,
        help="carousel payload size (content is deterministic from --seed)",
    )
    parser.add_argument(
        "--cohorts",
        metavar="SPEC",
        default=_DEFAULT_COHORTS,
        help="fleet description, e.g. 'near:n=16|far:n=8,distance=1.5,"
        "faults=drop:p=0.15' (see docs/broadcast.md for the grammar)",
    )
    parser.add_argument(
        "--dwell",
        type=float,
        default=4.0,
        help="default watch window in seconds for cohorts without dwell=",
    )
    parser.add_argument("--seed", type=int, default=1, help="fleet + noise seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the fan-out (default: in-process)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the fleet report as a JSON object instead of the summary",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="also write the fleet report JSON to a file",
    )
    add_telemetry_argument(parser)
    add_live_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.payload_bytes < 1:
        parser.error(f"--payload-bytes must be >= 1, got {args.payload_bytes}")
    if not args.dwell > 0.0:
        parser.error(f"--dwell must be > 0, got {args.dwell:g}")
    try:
        cohorts = parse_cohorts(args.cohorts, seed=args.seed)
    except CohortSpecError as exc:
        parser.error(f"--cohorts: {exc}")

    scale = getattr(ExperimentScale, args.scale)()
    try:
        config = scale.config(amplitude=args.delta)
    except ValueError as exc:
        parser.error(str(exc))
    payload = deterministic_payload(args.payload_bytes, seed=args.seed)
    base_camera = scale.camera()
    wall0 = time.perf_counter()
    live = LiveSession(args)
    with live, BroadcastSession(config, scale.video(args.video), payload) as session:
        if not args.json:
            print(
                f"broadcast: video={args.video} scale={args.scale} "
                f"payload={args.payload_bytes}B k={session.k} "
                f"cycle={session.cycle_packets} packets ({session.cycle_s:.2f} s)"
            )
        fleet = run_fleet(
            session,
            cohorts,
            base_camera=base_camera,
            seed=args.seed,
            workers=args.workers,
            default_dwell_s=args.dwell,
        )
    elapsed_s = time.perf_counter() - wall0
    write_telemetry(args.telemetry_out, fleet.telemetry)
    report_dict = fleet.report.as_dict()
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report_dict, handle, indent=2)
    if args.json:
        report_dict["elapsed_s"] = elapsed_s
        print(json.dumps(report_dict, indent=2))
    else:
        print(fleet.report.summary())
        print(f"  wall clock: {elapsed_s:.2f} s")
        profile = live.profile_summary()
        if profile is not None:
            print(profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
