"""CLI: run one end-to-end link simulation and print Figure-7 statistics.

Example::

    python -m repro.tools.simulate --video gray --delta 20 --tau 12
    python -m repro.tools.simulate --video video --delta 30 --scale full
    python -m repro.tools.simulate --json | jq .bit_accuracy
    python -m repro.tools.simulate --workers 4 --profile
    python -m repro.tools.simulate --faults 'drop:p=0.1;blackout:at=0.5,dur=0.5'
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from dataclasses import replace

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_link
from repro.faults import FAULT_KINDS, FaultPlan
from repro.obs import (
    LiveCollector,
    RunTelemetry,
    SamplingProfiler,
    install_live,
)


def _positive_seconds(text: str) -> float:
    """An argparse type: a number of seconds that is > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric value {text!r}") from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def add_live_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared live-telemetry / sampling-profiler option group.

    Used by simulate, transfer, serve and campaign alike; pair it with
    :class:`LiveSession` in ``main()``.
    """
    group = parser.add_argument_group("live telemetry")
    group.add_argument(
        "--snapshot-out",
        metavar="PATH",
        default=None,
        help="stream repro.obs.live/1 JSONL snapshots here at the "
        "snapshot cadence (tail them with python -m repro.tools.watch)",
    )
    group.add_argument(
        "--snapshot-interval",
        type=_positive_seconds,
        default=1.0,
        metavar="SECONDS",
        help="live snapshot cadence (default: 1.0)",
    )
    group.add_argument(
        "--profile-sampling",
        action="store_true",
        help="attach the sampling profiler and print the per-stage "
        "breakdown after the run",
    )
    group.add_argument(
        "--flamegraph-out",
        metavar="PATH",
        default=None,
        help="write the sampled stacks in collapsed-stack format "
        "(implies --profile-sampling)",
    )


class LiveSession:
    """Install/tear down the live collector + profiler a CLI asked for.

    Entering installs a process-wide :class:`~repro.obs.LiveCollector`
    (when ``--snapshot-out`` was given) and starts a
    :class:`~repro.obs.SamplingProfiler` (for ``--profile-sampling`` /
    ``--flamegraph-out``).  Exiting stops both, writes the flamegraph,
    and uninstalls the collector; :attr:`profiler` stays readable so the
    CLI can print the stage breakdown after the run.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.collector: LiveCollector | None = None
        self.profiler: SamplingProfiler | None = None
        self._flamegraph_out: str | None = getattr(args, "flamegraph_out", None)
        if getattr(args, "snapshot_out", None) is not None:
            self.collector = LiveCollector(
                interval_s=args.snapshot_interval, snapshot_path=args.snapshot_out
            )
        if getattr(args, "profile_sampling", False) or self._flamegraph_out:
            self.profiler = SamplingProfiler()

    def __enter__(self) -> "LiveSession":
        if self.collector is not None:
            install_live(self.collector)
            self.collector.start()
        if self.profiler is not None:
            self.profiler.start()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.profiler is not None:
            self.profiler.stop()
            if self._flamegraph_out is not None:
                self.profiler.report().write_collapsed(self._flamegraph_out)
        if self.collector is not None:
            self.collector.stop()
            install_live(None)

    def profile_summary(self) -> str | None:
        """The profiler's stage breakdown, or None when not profiling."""
        if self.profiler is None:
            return None
        return self.profiler.report().summary()


def add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--telemetry-out`` option (see ``repro.tools.report``)."""
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="write the run's repro.obs telemetry as JSON "
        "(render it with python -m repro.tools.report)",
    )


def write_telemetry(path: str | None, telemetry: RunTelemetry | None) -> None:
    """Write a run's ``RunTelemetry`` (if any) where ``--telemetry-out`` asked."""
    if path is None or telemetry is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(telemetry.as_dict(), handle, indent=2)


def add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--faults`` / ``--no-heal`` / ``--fault-seed`` group."""
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject deterministic faults, e.g. 'drop:p=0.1;flip:at=0.5' "
        f"(kinds: {' '.join(FAULT_KINDS)})",
    )
    group.add_argument(
        "--no-heal",
        action="store_true",
        help="disable the self-healing decoder (healing is on whenever "
        "--faults is given)",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the fault plan's random draws (default: --seed)",
    )


def parse_fault_plan(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[FaultPlan | None, bool | None]:
    """Resolve the fault group into ``run_link``'s (faults, heal) pair."""
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.parse(
                args.faults,
                seed=args.fault_seed if args.fault_seed is not None else args.seed,
            )
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
    heal: bool | None = False if args.no_heal else None
    return plan, heal


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.simulate",
        description="Simulate the InFrame screen->camera link end to end.",
    )
    parser.add_argument(
        "--video",
        choices=("gray", "dark-gray", "video"),
        default="gray",
        help="input content (the paper's three clips)",
    )
    parser.add_argument("--delta", type=float, default=20.0, help="chessboard amplitude")
    parser.add_argument("--tau", type=int, default=12, help="data-frame cycle (displayed frames)")
    parser.add_argument(
        "--scale",
        choices=("quick", "benchmark", "full"),
        default="benchmark",
        help="spatial scale of the experiment",
    )
    parser.add_argument("--seed", type=int, default=1, help="noise seed")
    parser.add_argument(
        "--screen-fill",
        type=float,
        default=1.0,
        help="fraction of the capture the screen subtends (1.0 = paper's 50 cm)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the LinkStats as a JSON object instead of the report",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the capture+decode stages (default: in-process)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the runtime's per-stage wall/CPU breakdown",
    )
    add_telemetry_argument(parser)
    add_fault_arguments(parser)
    add_live_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    faults, heal = parse_fault_plan(parser, args)
    scale = getattr(ExperimentScale, args.scale)()
    try:
        config = scale.config(amplitude=args.delta, tau=args.tau)
        camera = scale.camera()
        if args.screen_fill < 1.0:
            camera = replace(camera, screen_fill=args.screen_fill)
    except ValueError as exc:
        parser.error(str(exc))

    if not args.json:
        print(
            f"InFrame link: video={args.video} delta={args.delta:g} tau={args.tau} "
            f"scale={args.scale} fill={args.screen_fill:g}"
        )
        print(
            f"  grid {config.block_rows}x{config.block_cols} blocks of "
            f"{config.block_side_px}px, {config.bits_per_frame} bits/frame, "
            f"{config.data_frame_rate_hz:g} frames/s"
        )
    wall0 = time.perf_counter()
    with LiveSession(args) as live:
        run = run_link(
            config,
            scale.video(args.video),
            camera=camera,
            seed=args.seed,
            workers=args.workers,
            faults=faults,
            heal=heal,
        )
    elapsed_s = time.perf_counter() - wall0
    stats = run.stats
    write_telemetry(args.telemetry_out, run.telemetry)
    if args.json:
        record = dataclasses.asdict(stats)
        record["throughput_kbps"] = stats.throughput_kbps
        record["video"] = args.video
        record["delta"] = args.delta
        record["tau"] = args.tau
        record["scale"] = args.scale
        record["seed"] = args.seed
        record["elapsed_s"] = elapsed_s
        record["frames_per_s"] = len(run.captures) / elapsed_s if elapsed_s > 0 else 0.0
        if run.degradation is not None:
            record["degradation"] = run.degradation.as_dict()
        if args.profile and run.runtime is not None:
            record["runtime"] = run.runtime.as_dict()
        if live.profiler is not None:
            record["profile"] = live.profiler.report().as_dict()
        print(json.dumps(record, indent=2))
        return 0
    print(f"  decoded data frames : {stats.n_data_frames}")
    print(f"  available GOBs      : {stats.available_gob_ratio * 100:.1f}%")
    print(f"  GOB error rate      : {stats.gob_error_rate * 100:.1f}%")
    print(f"  parity-detected     : {stats.parity_error_rate * 100:.1f}%")
    print(f"  bit accuracy        : {stats.bit_accuracy * 100:.2f}%")
    print(f"  throughput          : {stats.throughput_kbps:.2f} kbps")
    print(
        f"  wall clock          : {elapsed_s:.2f} s "
        f"({len(run.captures) / elapsed_s:.1f} frames/s)"
    )
    if run.degradation is not None:
        print(run.degradation.summary())
    if args.profile and run.runtime is not None:
        print(run.runtime.summary())
    profile = live.profile_summary()
    if profile is not None:
        print(profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
