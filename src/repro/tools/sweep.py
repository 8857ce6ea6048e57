"""CLI: sweep one InFrame parameter and print its Figure-7 consequences.

A single-axis front-end over :mod:`repro.campaign`: the parameter/values
pair becomes a one-axis campaign spec, each value one seed-stamped work
unit executed by the same master/worker machinery as
``python -m repro.tools.campaign`` (in-memory, no journal).

Example::

    python -m repro.tools.sweep --parameter tau --values 8 10 12 14 16
    python -m repro.tools.sweep --parameter distance --values 1.0 1.5 2.0
    python -m repro.tools.sweep --parameter tau --values 8 10 12 14 --workers 4
"""

from __future__ import annotations

import argparse

from repro._util.spec import format_number
from repro.analysis.reporting import format_table
from repro.campaign import (
    SWEEPABLE,
    CampaignMaster,
    CampaignSpecError,
    coerce_sweep_values,
)
from repro.faults.plan import encode_faults_value
from repro.obs import RunTelemetry
from repro.tools.simulate import (
    add_fault_arguments,
    add_telemetry_argument,
    parse_fault_plan,
    write_telemetry,
)

__all__ = ["SWEEPABLE", "build_parser", "build_spec", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.sweep",
        description="Sweep one InFrame parameter over the simulated link.",
    )
    parser.add_argument(
        "--parameter", choices=sorted(SWEEPABLE), required=True,
        help="config/camera field to sweep (seeds = replicate count)",
    )
    parser.add_argument(
        "--values", nargs="+", required=True, help="values to try (type-checked per field)"
    )
    parser.add_argument(
        "--video", choices=("gray", "dark-gray", "video"), default="gray"
    )
    parser.add_argument(
        "--scale", choices=("quick", "benchmark", "full"), default="benchmark"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run sweep cells on this many worker processes "
        "(default: one per usable CPU, at most 8)",
    )
    add_telemetry_argument(parser)
    add_fault_arguments(parser)
    return parser


def build_spec(
    parameter: str,
    values: list[str],
    *,
    video: str = "gray",
    faults: str | None = None,
    no_heal: bool = False,
) -> str:
    """The campaign spec one sweep invocation expands to.

    Raises :class:`~repro.campaign.CampaignSpecError` (listing the
    sweepable keys) when the values do not fit the parameter -- the
    parse-time validation the campaign grammar itself applies.
    """
    coerced = coerce_sweep_values(parameter, values)
    csv = ",".join(format_number(v) for v in coerced)
    axes = [f"parameter={parameter}:{csv}", f"video={video}"]
    if faults:
        axes.append(f"faults={encode_faults_value(faults)}")
    if no_heal:
        axes.append("heal=off")
    return "|".join(axes)


def _format_row(
    parameter: str, row: dict[str, object]
) -> list[object]:
    """One report row rendered as the sweep table's cells."""
    params = row["params"]
    assert isinstance(params, dict)
    # `seeds=1` is the default replicate count and is elided from params.
    value = SWEEPABLE[parameter](params.get(parameter, 1))
    if row["status"] != "ok":
        return [value, f"invalid: {row.get('error')}", "", ""]
    stats = row["stats"]
    assert isinstance(stats, dict)
    return [
        value,
        f"{float(stats['available']) * 100:.1f}%",
        f"{float(stats['error_rate']) * 100:.1f}%",
        f"{float(stats['throughput_kbps']):.2f}",
    ]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    plan, _ = parse_fault_plan(parser, args)
    try:
        spec = build_spec(
            args.parameter,
            args.values,
            video=args.video,
            faults=plan.spec() if plan is not None else None,
            no_heal=args.no_heal,
        )
    except CampaignSpecError as exc:
        print(f"error: {exc}")
        return 2

    master = CampaignMaster(
        spec,
        scale=args.scale,
        seed=args.seed,
        fault_seed=args.fault_seed,
        workers=args.workers,
    )
    outcome = master.run()
    rows = [_format_row(args.parameter, dict(row)) for row in outcome.report.rows]
    if args.telemetry_out is not None:
        merged = RunTelemetry.merge(
            [
                RunTelemetry.from_dict(result.telemetry)
                for _, result in sorted(
                    outcome.results.items(), key=lambda kv: kv[1].index
                )
                if result.telemetry is not None
            ]
        )
        write_telemetry(args.telemetry_out, merged)
    print(
        format_table(
            [args.parameter, "avail", "err", "throughput kbps"],
            rows,
            title=f"Sweep of {args.parameter} on {args.video} content ({args.scale} scale)",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
