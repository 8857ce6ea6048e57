"""CLI: deliver a payload over the simulated link with a transport scheme.

Example::

    python -m repro.tools.transfer --bytes 160 --mode fountain
    python -m repro.tools.transfer --file logo.bin --mode arq --loss 0.2
    python -m repro.tools.transfer --bytes 96 --mode all --json
    python -m repro.tools.transfer --mode arq --faults 'drop:p=0.1;blackout:at=0.5,dur=0.5'
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import numpy as np

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_transport_link
from repro.obs import RunTelemetry
from repro.tools.simulate import (
    LiveSession,
    add_fault_arguments,
    add_live_arguments,
    add_telemetry_argument,
    parse_fault_plan,
    write_telemetry,
)

_MODES = ("plain", "fountain", "arq", "carousel")


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.transfer",
        description="Deliver a payload over the InFrame link via repro.transport.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--file", help="payload file to transfer")
    source.add_argument(
        "--bytes",
        type=int,
        default=120,
        help="size of a random payload when --file is not given",
    )
    parser.add_argument(
        "--mode",
        choices=_MODES + ("all",),
        default="fountain",
        help="transport scheme ('all' compares every mode on one line each)",
    )
    parser.add_argument(
        "--video",
        choices=("gray", "dark-gray", "video"),
        default="video",
        help="input content the packets are multiplexed onto",
    )
    parser.add_argument("--delta", type=float, default=30.0, help="chessboard amplitude")
    parser.add_argument("--tau", type=int, default=12, help="data-frame cycle (displayed frames)")
    parser.add_argument(
        "--scale",
        choices=("quick", "benchmark", "full"),
        default="quick",
        help="spatial scale of the experiment",
    )
    parser.add_argument("--seed", type=int, default=1, help="noise seed")
    parser.add_argument("--rs-n", type=int, default=60, help="inner RS codeword length")
    parser.add_argument("--rs-k", type=int, default=24, help="inner RS data bytes")
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="extra GOB loss stacked on the PHY's own impairments",
    )
    parser.add_argument(
        "--feedback-loss", type=float, default=0.0, help="ARQ NACK loss probability"
    )
    parser.add_argument(
        "--max-rounds", type=int, default=6, help="bound on forward passes"
    )
    parser.add_argument(
        "--join-offset",
        type=int,
        default=0,
        help="first carousel symbol observed (mid-stream join)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit TransportStats as JSON"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per forward pass (default: in-process)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the runtime's per-stage wall/CPU breakdown per mode",
    )
    add_telemetry_argument(parser)
    add_fault_arguments(parser)
    add_live_arguments(parser)
    group = parser.add_argument_group("degradation policy")
    group.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        help="cap on retransmitted packets across all ARQ rounds",
    )
    group.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="give up on ARQ rounds past this modelled elapsed time",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 iff the requested mode delivered.

    ``--mode all`` is a comparison report (the plain baseline is allowed
    -- often expected -- to fail there) and always exits 0.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    faults, heal = parse_fault_plan(parser, args)
    if args.retry_budget is not None and args.retry_budget < 0:
        parser.error(f"--retry-budget must be >= 0, got {args.retry_budget}")
    if args.deadline_s is not None and args.deadline_s <= 0:
        parser.error(f"--deadline-s must be positive, got {args.deadline_s:g}")
    if not 0.0 <= args.loss <= 1.0:
        parser.error(f"--loss must be in [0.0, 1.0], got {args.loss:g}")
    if not 0.0 <= args.feedback_loss <= 1.0:
        parser.error(
            f"--feedback-loss must be in [0.0, 1.0], got {args.feedback_loss:g}"
        )
    if args.file is not None:
        try:
            with open(args.file, "rb") as handle:
                payload = handle.read()
        except OSError as exc:
            parser.error(str(exc))
        if not payload:
            parser.error(f"payload file {args.file} is empty")
    else:
        rng = np.random.default_rng(args.seed)
        payload = rng.integers(0, 256, max(1, args.bytes), dtype=np.uint8).tobytes()

    scale = getattr(ExperimentScale, args.scale)()
    try:
        config = scale.config(amplitude=args.delta, tau=args.tau)
    except ValueError as exc:
        parser.error(str(exc))
    video = scale.video(args.video)
    modes = _MODES if args.mode == "all" else (args.mode,)

    if not args.json:
        print(
            f"InFrame transfer: {len(payload)} B over video={args.video} "
            f"delta={args.delta:g} tau={args.tau} scale={args.scale} "
            f"RS({args.rs_n},{args.rs_k}) loss={args.loss:g}"
        )

    results = []
    records = []
    telemetries: list[RunTelemetry | None] = []
    live = LiveSession(args)
    with live:
        for mode in modes:
            wall0 = time.perf_counter()
            run = run_transport_link(
                config,
                video,
                payload,
                mode=mode,
                camera=scale.camera(),
                rs_n=args.rs_n,
                rs_k=args.rs_k,
                seed=args.seed,
                max_rounds=args.max_rounds,
                extra_gob_loss=args.loss,
                feedback_loss=args.feedback_loss,
                join_offset=args.join_offset,
                workers=args.workers,
                faults=faults,
                heal=heal,
                retry_budget=args.retry_budget,
                deadline_s=args.deadline_s,
            )
            elapsed_s = time.perf_counter() - wall0
            results.append(run.stats)
            telemetries.append(run.telemetry)
            record = dataclasses.asdict(run.stats)
            record["elapsed_s"] = elapsed_s
            frames = run.runtime.frames if run.runtime is not None else 0
            record["frames_per_s"] = frames / elapsed_s if elapsed_s > 0 else 0.0
            if run.degradation is not None:
                record["degradation"] = run.degradation.as_dict()
            if args.profile and run.runtime is not None:
                record["runtime"] = run.runtime.as_dict()
            records.append(record)
            if not args.json:
                print(f"  {run.stats.row()}  [{elapsed_s:.2f} s]")
                if run.arq_stats is not None:
                    print(f"           {run.arq_stats.row()}")
                if run.degradation is not None:
                    print(run.degradation.summary())
                if args.profile and run.runtime is not None:
                    print(run.runtime.summary())

    write_telemetry(args.telemetry_out, RunTelemetry.merge(telemetries))
    profile = live.profile_summary()
    if profile is not None and not args.json:
        print(profile)
    if args.json:
        print(json.dumps(records[0] if args.mode != "all" else records, indent=2))
    if args.mode == "all":
        return 0
    return 0 if all(stats.delivered for stats in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
