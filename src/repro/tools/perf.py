"""CLI: bench-trend tracking and the perf regression gate.

Example::

    python -m repro.tools.perf ingest --results benchmarks/results
    python -m repro.tools.perf check --results benchmarks/results
    python -m repro.tools.perf check --threshold 0.1 \\
        --metric-threshold overhead_ratio=1.0
    python -m repro.tools.perf show

Every ``bench_*.json`` under the results directory is normalized into
the shared bench envelope (:data:`BENCH_SCHEMA`): top-level ``schema``,
``bench``, ``quick``, ``usable_cpus``, and a flat ``metrics`` mapping of
dotted paths to numeric leaves (``fleet.delivery_rate``,
``runs.0.elapsed_s``).  Files written before the envelope existed are
normalized on read from their payload plus filename, so the trajectory
spans the repo's whole bench history.

``ingest`` appends one run per result file to the trajectory
(:data:`PERF_FORMAT`, committed at :data:`DEFAULT_TRAJECTORY`);
``check`` compares the current results against a rolling baseline (the
mean of the last ``--window`` ingested runs per bench, on the result's
``usable_cpus`` when the trajectory has such runs) and exits 1 when
any *directional* metric regressed past its threshold.  Direction is
inferred from the metric name -- ``elapsed_s``-style timings regress
upward, ``frames_per_s``-style rates regress downward; metrics with no
inferable direction are tracked but never gated, and so are timings
under :data:`NOISE_FLOOR_S` on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Iterable

#: Version tag of the normalized bench result envelope.
BENCH_SCHEMA = "repro.bench/1"

#: Version tag of the trajectory file ``ingest`` maintains.
PERF_FORMAT = "repro.perf/1"

#: Where the committed trajectory lives, relative to the repo root.
DEFAULT_TRAJECTORY = "benchmarks/results/perf_trajectory.json"

#: Default relative regression budget (20%; the CI gate proves a 30%
#: injected slowdown trips it).
DEFAULT_THRESHOLD = 0.2

#: Rolling-baseline window: how many most-recent ingested runs average
#: into the baseline a ``check`` compares against.
DEFAULT_WINDOW = 5

#: Seconds-valued timings below this in both baseline and current are
#: tracked but not gated: a stage that takes tens of milliseconds (a
#: run's ``score`` or ``decide``) moves by more than the budget with host
#: load and CPU count alone.
NOISE_FLOOR_S = 0.1

#: Envelope keys that are identity/bookkeeping, not performance leaves.
_ENVELOPE_KEYS = ("schema", "bench", "quick", "metrics")

#: Metric leaf names where *higher* is better, checked before the
#: generic ``_s`` timing suffix (``frames_per_s`` ends in ``_s`` too).
_HIGHER_SUFFIXES = (
    "_per_s",
    "per_field_s",
    "speedup",
    "speedup_vs_serial",
    "rate",
    "goodput",
    "kbps",
    "bps",
    "accuracy",
    "reuse_ratio",
)

#: Metric leaf names where *lower* is better.
_LOWER_SUFFIXES = ("_s", "overhead_ratio", "retries", "deaths", "skipped")


def usable_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def metric_direction(name: str) -> str | None:
    """``"lower"`` / ``"higher"`` is better, or ``None`` (not gated)."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "overhead_ratio":
        return "lower"
    if leaf == "per_field_s":
        return "lower"
    for suffix in _HIGHER_SUFFIXES:
        if leaf == suffix.lstrip("_") or leaf.endswith(suffix):
            return "higher"
    for suffix in _LOWER_SUFFIXES:
        if leaf == suffix.lstrip("_") or leaf.endswith(suffix):
            return "lower"
    return None


def flatten_metrics(record: dict[str, object]) -> dict[str, float]:
    """Every numeric leaf of *record* as a flat dotted-path mapping.

    Booleans and strings are skipped (they are facts, not measurements),
    as are the envelope's own keys.  List elements use their index as a
    path segment, so ``runs[0]["elapsed_s"]`` becomes
    ``runs.0.elapsed_s``.
    """
    flat: dict[str, float] = {}

    def visit(value: object, path: str) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            flat[path] = float(value)
        elif isinstance(value, dict):
            for key in sorted(value):
                visit(value[key], f"{path}.{key}" if path else str(key))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                visit(item, f"{path}.{i}" if path else str(i))

    for key in sorted(record):
        if key in _ENVELOPE_KEYS or key == "usable_cpus":
            continue
        visit(record[key], key)
    return flat


def bench_envelope(
    record: dict[str, object], *, bench: str, quick: bool
) -> dict[str, object]:
    """Stamp the shared envelope onto a bench result record (in place).

    The benchmarks call this right before writing their JSON: it adds
    ``schema``/``bench``/``quick``/``usable_cpus`` and the flattened
    ``metrics`` mapping while leaving every existing key alone, so
    consumers of the raw payload (the CI asserts, the txt reports) keep
    working unchanged.
    """
    record["schema"] = BENCH_SCHEMA
    record["bench"] = bench
    record["quick"] = bool(quick)
    record.setdefault("usable_cpus", usable_cpus())
    record["metrics"] = flatten_metrics(record)
    return record


def normalize_bench(
    payload: dict[str, object], *, source: str
) -> dict[str, object]:
    """A result payload in envelope form, whatever vintage it is.

    Already-enveloped payloads pass through (metrics recomputed if
    absent); legacy payloads infer ``bench`` from their own ``bench``
    key or the filename stem, and ``quick`` from their ``quick`` key or
    a ``_quick`` stem suffix.
    """
    stem = Path(source).stem
    if stem.startswith("bench_"):
        stem = stem[len("bench_") :]
    quick_from_name = stem.endswith("_quick")
    if quick_from_name:
        stem = stem[: -len("_quick")]
    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench:
        bench = stem
    quick = payload.get("quick")
    if not isinstance(quick, bool):
        quick = quick_from_name
    return bench_envelope(dict(payload), bench=bench, quick=quick)


def load_results(results_dir: str | Path) -> list[dict[str, object]]:
    """Every ``bench_*.json`` under *results_dir*, normalized and sorted.

    The trajectory file itself and unparseable files are skipped.
    """
    out: list[dict[str, object]] = []
    trajectory_name = Path(DEFAULT_TRAJECTORY).name
    for path in sorted(Path(results_dir).glob("bench_*.json")):
        if path.name == trajectory_name:
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        record = normalize_bench(payload, source=path.name)
        record["source"] = path.name
        out.append(record)
    return out


# ----------------------------------------------------------------------
# The trajectory file
# ----------------------------------------------------------------------
def read_trajectory(path: str | Path) -> dict[str, object]:
    """The trajectory file's contents (an empty one if absent)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {"format": PERF_FORMAT, "runs": []}
    if not isinstance(payload, dict) or payload.get("format") != PERF_FORMAT:
        raise ValueError(f"{path} is not a {PERF_FORMAT} trajectory")
    if not isinstance(payload.get("runs"), list):
        raise ValueError(f"{path} has no runs list")
    return payload


def write_trajectory(path: str | Path, trajectory: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_key(run: dict[str, object]) -> tuple[str, bool]:
    return str(run.get("bench", "")), bool(run.get("quick", False))


def baseline_for(
    trajectory: dict[str, object],
    bench: str,
    quick: bool,
    *,
    window: int = DEFAULT_WINDOW,
) -> dict[str, float]:
    """Per-metric rolling baseline: mean over the last *window* runs."""
    runs = [
        run
        for run in trajectory.get("runs", [])  # type: ignore[union-attr]
        if isinstance(run, dict) and _run_key(run) == (bench, quick)
    ]
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for run in runs[-window:]:
        metrics = run.get("metrics")
        if not isinstance(metrics, dict):
            continue
        for name in metrics:
            value = metrics[name]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                sums[name] = sums.get(name, 0.0) + float(value)
                counts[name] = counts.get(name, 0) + 1
    return {name: sums[name] / counts[name] for name in sorted(sums)}


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    *,
    threshold: float,
    metric_thresholds: dict[str, float] | None = None,
) -> list[dict[str, object]]:
    """Directional deltas of *current* vs *baseline*, worst first.

    Each row carries the metric, both values, the signed relative delta,
    the inferred direction, and whether it regressed past its threshold.
    Metrics missing from either side and zero baselines are skipped;
    undirected metrics and timings under :data:`NOISE_FLOOR_S` on both
    sides are tracked as rows but never flagged.
    """
    rows: list[dict[str, object]] = []
    overrides = metric_thresholds or {}
    for name in sorted(set(current) & set(baseline)):
        base = baseline[name]
        cur = current[name]
        if base == 0.0:
            continue
        delta = (cur - base) / abs(base)
        direction = metric_direction(name)
        leaf = name.rsplit(".", 1)[-1]
        budget = overrides.get(leaf, overrides.get(name, threshold))
        tiny = (
            leaf.endswith("_s")
            and not leaf.endswith("_per_s")
            and max(base, cur) < NOISE_FLOOR_S
        )
        regressed = False
        if direction == "lower":
            regressed = delta > budget and not tiny
        elif direction == "higher":
            regressed = delta < -budget and not tiny
        rows.append(
            {
                "metric": name,
                "baseline": base,
                "current": cur,
                "delta": delta,
                "direction": direction,
                "threshold": budget,
                "regressed": regressed,
            }
        )
    rows.sort(key=lambda r: (not r["regressed"], -abs(float(r["delta"]))))  # type: ignore[arg-type]
    return rows


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_metric_thresholds(
    parser: argparse.ArgumentParser, pairs: Iterable[str]
) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            parser.error(f"--metric-threshold wants NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            parser.error(f"--metric-threshold {name}: bad value {value!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.perf",
        description="Track bench results over time and gate on regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--results",
            metavar="DIR",
            default="benchmarks/results",
            help="directory of bench_*.json result files",
        )
        cmd.add_argument(
            "--trajectory",
            metavar="PATH",
            default=DEFAULT_TRAJECTORY,
            help=f"the trend file (default: {DEFAULT_TRAJECTORY})",
        )

    ingest = sub.add_parser(
        "ingest", help="append the current results to the trajectory"
    )
    common(ingest)

    check = sub.add_parser(
        "check", help="gate the current results against the rolling baseline"
    )
    common(check)
    check.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative regression budget (default: 0.2 = 20%%)",
    )
    check.add_argument(
        "--metric-threshold",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="per-metric budget override (leaf or dotted name; repeatable)",
    )
    check.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help="rolling-baseline window in runs (default: 5)",
    )
    check.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )

    show = sub.add_parser("show", help="print the trajectory's contents")
    common(show)

    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    trajectory = read_trajectory(args.trajectory)
    runs = trajectory["runs"]
    assert isinstance(runs, list)
    results = load_results(args.results)
    for record in results:
        runs.append(
            {
                "bench": record["bench"],
                "quick": record["quick"],
                "source": record["source"],
                "usable_cpus": record.get("usable_cpus"),
                "metrics": record["metrics"],
            }
        )
    write_trajectory(args.trajectory, trajectory)
    print(
        f"ingested {len(results)} result files -> {args.trajectory} "
        f"({len(runs)} runs total)"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    parser = build_parser()
    overrides = _parse_metric_thresholds(parser, args.metric_threshold)
    trajectory = read_trajectory(args.trajectory)
    results = load_results(args.results)
    report: list[dict[str, object]] = []
    regressions = 0
    runs = trajectory["runs"]
    assert isinstance(runs, list)
    for record in results:
        bench = str(record["bench"])
        quick = bool(record["quick"])
        # Timings from hosts with other CPU counts are not comparable:
        # baseline on same-count runs, falling back to every run only
        # when the trajectory has none.
        cpus = record.get("usable_cpus")
        same_cpus: dict[str, object] = {
            "runs": [r for r in runs if isinstance(r, dict) and r.get("usable_cpus") == cpus]
        }
        baseline = baseline_for(same_cpus, bench, quick, window=args.window) or baseline_for(
            trajectory, bench, quick, window=args.window
        )
        metrics = record["metrics"]
        assert isinstance(metrics, dict)
        rows = compare(
            metrics,
            baseline,
            threshold=args.threshold,
            metric_thresholds=overrides,
        )
        bad = [row for row in rows if row["regressed"]]
        regressions += len(bad)
        report.append(
            {
                "bench": bench,
                "quick": quick,
                "source": record["source"],
                "compared": len(rows),
                "regressions": bad,
            }
        )
        if not args.json:
            tag = f"{bench}{'/quick' if quick else ''}"
            if not baseline:
                print(f"  {tag:<28} no baseline yet (run ingest first)")
                continue
            print(f"  {tag:<28} {len(rows)} metrics vs baseline, {len(bad)} regressed")
            for row in bad:
                print(
                    f"    REGRESSED {row['metric']}: "
                    f"{row['baseline']:g} -> {row['current']:g} "
                    f"({float(row['delta']):+.1%}, budget "  # type: ignore[arg-type]
                    f"{float(row['threshold']):.0%} {row['direction']}-is-better)"  # type: ignore[arg-type]
                )
    if args.json:
        print(json.dumps({"format": PERF_FORMAT, "checks": report}, sort_keys=True))
    elif regressions == 0:
        print("perf gate: ok, no directional metric past its budget")
    else:
        print(f"perf gate: {regressions} regressed metrics")
    return 1 if regressions else 0


def _cmd_show(args: argparse.Namespace) -> int:
    trajectory = read_trajectory(args.trajectory)
    runs = trajectory["runs"]
    assert isinstance(runs, list)
    print(f"trajectory: {args.trajectory} ({len(runs)} runs)")
    tally: dict[tuple[str, bool], int] = {}
    for run in runs:
        if isinstance(run, dict):
            tally[_run_key(run)] = tally.get(_run_key(run), 0) + 1
    for (bench, quick) in sorted(tally):
        tag = f"{bench}{'/quick' if quick else ''}"
        print(f"  {tag:<28} {tally[(bench, quick)]} runs")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"ingest": _cmd_ingest, "check": _cmd_check, "show": _cmd_show}
    try:
        return commands[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
