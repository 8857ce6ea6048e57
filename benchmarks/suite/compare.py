"""Compare two sets of benchmark records (``run.py --out``), metric by metric.

    python3 benchmarks/suite/compare.py --base 'parent/*.json' --head 'change/*.json'

For every end-to-end metric and workload it pairs the i-th parent run with
the i-th change run (ordered by seed) and reports one verdict:

* ``better`` -- over at least 10 pairs, the change wins at least 9 of
  every 10 (ties count for neither side) and the medians differ by more
  than the distance between the parent's own quartiles;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved`` -- the run-to-run spread (quartile distance over median)
  of either side is wider than the bound, and not every change run reads
  better than every parent run;
* ``same`` -- otherwise.

Metrics rescaled to reference host speed (``worker.HostClock``) get a
second row, as timed, from the same records; a change is worse if either
row is.  As timed, only runs of both commits alternated on one host are
comparable, since the host's speed drifts.

Simulated results must be identical across every run of both sets that
used the same seed, and the change may not fail a larger share of its
operations.  Traced records add a per-layer table of self-time shares.
Exits 1 when any row is worse, a simulated result changed, or more
operations failed.
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
from collections.abc import Sequence
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Pairs needed, and the share of them the change must win, to claim a gain.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(patterns: Sequence[str]) -> list[dict]:
    """Every record matched by *patterns*, in file-name order."""
    paths = sorted({p for pattern in patterns for p in glob.glob(pattern)})
    if not paths:
        raise ValueError(f"no records match {list(patterns)}")
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def spread(values: Sequence[float]) -> tuple[float, float, float]:
    """Median, quartile distance, and quartile distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, (q3 - q1) / abs(median) if median else float("inf")


def gain(a: float, b: float, higher: bool) -> float:
    """How much *b* improves on *a* (positive is better)."""
    return b - a if higher else a - b


def wins(base: Sequence[float], head: Sequence[float], higher: bool) -> int:
    """Pairs in which the change reads better (ties count for neither side)."""
    return sum(1 for b, h in zip(base, head) if gain(b, h, higher) > 0)


def verdict(base: Sequence[float], head: Sequence[float], higher: bool, bound: float) -> str:
    """The verdict for one metric on one workload (rules in the module docstring)."""
    base_med, base_iqr, base_spread = spread(base)
    head_med, _, head_spread = spread(head)
    n_pairs = min(len(base), len(head))
    claimable = n_pairs >= MIN_PAIRS and wins(base, head, higher) >= WIN_SHARE * n_pairs
    if claimable and gain(base_med, head_med, higher) > base_iqr:
        return "better"
    if -gain(base_med, head_med, higher) > bound * abs(base_med):
        return "worse"
    all_better = min(gain(b, h, higher) for b in base for h in head) > 0
    if max(base_spread, head_spread) > bound and not all_better:
        return "unresolved"
    return "same"


def compare(base: list[dict], head: list[dict], spec: dict) -> tuple[list[str], bool]:
    """The report lines, and whether the change passes."""
    lines: list[str] = []
    passed = True
    workloads = [w["name"] for w in spec["workloads"]]
    # Sorting by seed pairs runs of the same inputs when both sides used the same seeds.
    untraced = {
        side: {
            w: sorted(
                (r for r in recs if r["workload"] == w and not r["trace"]),
                key=lambda r: r["seed"],
            )
            for w in workloads
        }
        for side, recs in (("base", base), ("head", head))
    }
    lines.append(
        f"{'workload':18s} {'metric':22s} {'parent':>12s} {'change':>12s} "
        f"{'delta':>8s} {'spread':>13s} {'wins':>7s}  verdict"
    )
    for workload in workloads:
        sides = b_recs, h_recs = untraced["base"][workload], untraced["head"][workload]
        if not b_recs or not h_recs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows = [(name, [[r["metrics"][name]["value"] for r in recs] for recs in sides])]
            if all(name in r.get("as_timed", {}) for r in b_recs + h_recs):
                rows.append(
                    (f"{name} as timed", [[r["as_timed"][name] for r in recs] for recs in sides])
                )
            higher = metric["better"] == "higher"
            for label, (b, h) in rows:
                result = verdict(b, h, higher, metric["bound"])
                passed = passed and result != "worse"
                b_med, _, b_spread = spread(b)
                h_med, _, h_spread = spread(h)
                lines.append(
                    f"{workload:18s} {label:22s} {b_med:12.4g} {h_med:12.4g} "
                    f"{(h_med - b_med) / b_med:+8.1%} {b_spread:6.1%}/{h_spread:<6.1%} "
                    f"{wins(b, h, higher):3d}/{min(len(b), len(h)):<3d}  "
                    f"{result} (bound {metric['bound']:.0%})"
                )
        quality: dict[int, set[str]] = {}
        for r in b_recs + h_recs:
            quality.setdefault(r["seed"], set()).add(json.dumps(r["quality"], sort_keys=True))
        changed = sorted(seed for seed, values in quality.items() if len(values) > 1)
        passed = passed and not changed
        lines.append(
            f"{workload:18s} {'simulated':22s} "
            + (f"CHANGED at seeds {changed}" if changed else "identical at every seed")
        )
        shares = []
        for recs in (b_recs, h_recs):
            attempted = sum(r["attempted"] for r in recs)
            shares.append(sum(r["failed"] for r in recs) / attempted if attempted else 1.0)
        passed = passed and shares[1] <= shares[0]
        lines.append(
            f"{workload:18s} {'failed ops':22s} {shares[0]:12.2%} {shares[1]:12.2%}"
            + ("" if shares[1] <= shares[0] else "  MORE FAILURES")
        )
    lines += layer_table(base, head, workloads)
    return lines, passed


def layer_table(base: list[dict], head: list[dict], workloads: list[str]) -> list[str]:
    """Median per-layer self-time shares of the traced records, where both sides have some."""
    lines = []
    for workload in workloads:
        traced = [
            [r for r in recs if r["workload"] == workload and r["trace"]] for recs in (base, head)
        ]
        if not traced[0] or not traced[1]:
            continue
        lines.append(f"\n{workload}: layer self-time share, parent -> change")
        for name in traced[0][0]["metrics"]:
            if not name.endswith(".share"):
                continue
            b, h = (statistics.median(r["metrics"][name]["value"] for r in t) for t in traced)
            if b or h:
                lines.append(f"  {name[: -len('.share')]:16s} {b:7.1%} -> {h:7.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="parent records (globs)")
    parser.add_argument("--head", nargs="+", required=True, help="change records (globs)")
    args = parser.parse_args(argv)
    try:
        base, head = load_records(args.base), load_records(args.head)
    except ValueError as exc:
        parser.error(str(exc))
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, passed = compare(base, head, spec)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
