"""CLI: score a multiplexing configuration with the simulated user panel.

Example::

    python -m repro.tools.flicker --delta 30 --tau 12 --brightness 127
"""

from __future__ import annotations

import argparse

from repro.analysis.experiments import flicker_timeline
from repro.analysis.userstudy import SimulatedPanel


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.flicker",
        description="Rate a configuration on the paper's 0-4 flicker scale.",
    )
    parser.add_argument("--delta", type=float, default=20.0, help="chessboard amplitude")
    parser.add_argument("--tau", type=int, default=12, help="data-frame cycle")
    parser.add_argument("--brightness", type=float, default=127.0, help="carrier pixel level")
    parser.add_argument("--duration", type=float, default=0.5, help="scored seconds")
    parser.add_argument("--subjects", type=int, default=8, help="panel size")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        timeline = flicker_timeline(args.delta, args.tau, args.brightness)
        panel = SimulatedPanel(n_subjects=args.subjects)
        result = panel.study(timeline, duration_s=args.duration)
    except ValueError as exc:
        parser.error(str(exc))

    print(
        f"Flicker study: delta={args.delta:g} tau={args.tau} "
        f"brightness={args.brightness:g} ({args.subjects} subjects)"
    )
    print(f"  ratings      : {[int(s) for s in result.scores]}")
    print(f"  mean +/- std : {result.mean_score:.2f} +/- {result.std_score:.2f}")
    print(f"  model score  : {result.model_score:.2f}")
    labels = {
        0: "no difference at all",
        1: "almost unnoticeable",
        2: "merely noticeable",
        3: "evident flicker",
        4: "strong flicker or artifact",
    }
    nearest = min(labels, key=lambda k: abs(k - result.mean_score))
    print(f"  verdict      : ~{labels[nearest]} "
          f"({'satisfactory' if result.satisfactory else 'not satisfactory'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
