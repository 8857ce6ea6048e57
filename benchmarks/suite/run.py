"""The InFrame physics-chain benchmark: one workload per call, one result line.

    python3 benchmarks/suite/run.py --workload link-gray --seed 1 --seconds 20 --trace 0

Each call sets the workload up seven times in fresh single-threaded
processes (``setup_s`` is the median), repeats it for ``--seconds`` in the
middle one, checks every output against ``reference.json`` (at its seed)
or against the first repetition (at any other seed), and prints the
end-to-end metrics -- or with ``--trace 1`` the per-layer metrics of a
traced run -- as the last line of standard output::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--out PATH`` also writes the full record that ``compare.py`` reads,
including the host times as timed, before rescaling.
``--write-reference`` re-pins ``reference.json`` for one workload after
a deliberate physics change.  This script needs only the Python
standard library; the workers it starts import the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("link-gray", "link-video-faults", "fleet", "flicker")
#: What one frame and one operation are, per workload (for the summary line).
UNITS = {
    "link-gray": ("captures", "link runs"),
    "link-video-faults": ("captures", "link runs"),
    "fleet": ("captures", "receivers"),
    "flicker": ("display samples", "stimuli"),
}
#: Set-up-only processes before and after the measured one; ``setup_s``
#: is the median of all their set-up times.
SETUPS_PER_SIDE = 3
#: Seconds the ``worker.HostClock`` kernel takes on the reference host
#: (about its median on the 2-vCPU Xeon VM the baseline ran on).  Host
#: times are reported as if measured there: ``wall * REFERENCE_HOST_S /
#: host_s``, where ``host_s`` is the mean kernel time sampled during the
#: measured interval.
REFERENCE_HOST_S = 0.0055
#: Every worker must finish inside this many seconds from the start of the call.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    """The environment of a workload process: ``src`` importable, one thread.

    Workers write no bytecode caches, so in a fresh checkout every
    set-up compiles the program alike, whatever ran before it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``worker.py`` with *args*; returns its result and its start time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return json.loads(lines[-1]), started


def load_reference(workload: str, seed: int) -> dict | None:
    """The pinned outputs of *workload*, when *seed* is the pinned seed."""
    if not REFERENCE.exists():
        return None
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference.get("seed") != seed:
        return None
    return reference.get("workloads", {}).get(workload)


def expected_outputs(reps: list[dict]) -> dict | None:
    """The outputs every repetition must repeat: those of the first that succeeded."""
    for rep in reps:
        if "error" not in rep:
            return {
                "digest": rep["digest"],
                "ops": {op_id: digest for op_id, digest, _ok in rep["ops"]},
                "quality": rep["quality"],
            }
    return None


def check_reps(reps: list[dict], expected: dict | None) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed, with the reason for each failure.

    An operation fails if its repetition raised, if its digest (or its
    repetition's digest or simulated quality) differs from *expected*, or
    if its own invariant failed (a fleet receiver not delivered, a score
    out of range).  An expected operation that is missing fails too.
    """
    attempted = failed = 0
    problems: list[str] = []
    if expected is None:
        expected = {"digest": None, "ops": {}, "quality": None}
    n_expected = max(len(expected["ops"]), 1)
    for index, rep in enumerate(reps):
        if "error" in rep:
            attempted += n_expected
            failed += n_expected
            problems.append(f"rep {index} raised {rep['error']}")
            continue
        rep_ok = rep["digest"] == expected["digest"] and rep["quality"] == expected["quality"]
        seen = set()
        for op_id, digest, ok in rep["ops"]:
            seen.add(op_id)
            attempted += 1
            if not ok:
                reason = "failed its invariant"
            elif expected["ops"].get(op_id) != digest:
                reason = "digest differs"
            elif not rep_ok:
                reason = "its repetition's output differs"
            else:
                continue
            failed += 1
            problems.append(f"rep {index}: {op_id} {reason}")
        missing = set(expected["ops"]) - seen
        attempted += len(missing)
        failed += len(missing)
        problems += [f"rep {index}: {op_id} missing" for op_id in sorted(missing)]
    return attempted, failed, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (the median thrice for one value)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_time(result: dict, started: float) -> float:
    """A worker's set-up seconds at reference host speed."""
    return (result["ready_at"] - started) * REFERENCE_HOST_S / result["setup_host_s"]


def frame_rates(reps: list[dict]) -> tuple[list[float], list[float]]:
    """Frames per second of every untraced repetition that succeeded.

    The first list is at reference host speed, the second as timed.
    """
    clocked = [rep for rep in reps if rep.get("host_s")]
    timed = [rep["frames"] / rep["wall_s"] for rep in clocked]
    rescaled = [rate * rep["host_s"] / REFERENCE_HOST_S for rate, rep in zip(timed, clocked)]
    return rescaled, timed


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of an untraced run (host times at reference speed)."""
    rates, _ = frame_rates(result["reps"])
    if not rates:
        raise BenchError("no repetition succeeded")
    return {
        "setup_s": statistics.median(setups),
        "frames_per_s": statistics.median(rates),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric named in BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(workload: str, seed: int, result: dict, record: dict) -> str:
    """Human-readable lines printed before the result line."""
    done = [rep for rep in result["reps"] if "error" not in rep]
    frame_unit, op_unit = UNITS[workload]
    rates, timed = frame_rates(done)
    lines = [f"{workload} seed={seed}: {len(result['reps'])} repetitions"]
    if rates:
        q1, q2, q3 = quartiles(rates)
        raw = statistics.median(timed)
        lines.append(
            f"  {frame_unit}/s median {q2:.2f} (quartiles {q1:.2f}-{q3:.2f}, n={len(rates)}) "
            f"at reference host speed, {raw:.2f} as timed here; "
            f"{op_unit}/s {q2 * len(done[0]['ops']) / done[0]['frames']:.3f}"
        )
    if done:
        quality = ", ".join(f"{k}={v:.6g}" for k, v in done[0]["quality"].items())
        lines.append(f"  simulated (exact): {quality}")
    lines.append(
        f"  ops {record['attempted']}, failed {record['failed']}"
        + (f" ({record['problems'][0]})" if record["problems"] else "")
    )
    return "\n".join(lines)


def write_reference(workload: str, seed: int, reps: list[dict]) -> None:
    """Pin this run's outputs for *workload* in reference.json."""
    expected = expected_outputs(reps)
    if expected is None:
        raise BenchError("no repetition succeeded; nothing to pin")
    _, failed, problems = check_reps(reps, expected)
    if failed:
        raise BenchError(f"refusing to pin failing outputs: {problems[0]}")
    reference = {"seed": seed, "workloads": {}}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
        if reference["seed"] != seed:
            raise BenchError(f"reference.json pins seed {reference['seed']}, not {seed}")
    reference["workloads"][workload] = expected
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run(args: argparse.Namespace) -> dict:
    """One benchmark call; returns the full record."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_samples() -> list[tuple[dict, float]]:
        return [run_worker([*common, "--setup-only"], deadline) for _ in range(n_side)]

    # Set-up samples straddle the measured run, so one slow spell of the
    # host does not decide their median.  A traced run reports no set-up.
    n_side = 0 if args.trace else SETUPS_PER_SIDE
    samples = setup_samples()
    measure_args = [*common, "--seconds", str(args.seconds)]
    trace_file = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
    if args.trace:
        measure_args += ["--trace-out", str(trace_file)]
    result, started = run_worker(measure_args, deadline)
    samples += [(result, started), *setup_samples()]
    setups = [setup_time(ready, start) for ready, start in samples]

    reps = result["reps"]
    if args.write_reference:
        write_reference(args.workload, args.seed, reps)
    expected = load_reference(args.workload, args.seed) or expected_outputs(reps)
    attempted, failed, problems = check_reps(reps, expected)
    as_timed = {}
    if args.trace:
        problems += [f"trace: {p}" for p in result["trace_problems"]]
        values = result["layers"]
    else:
        values = end_to_end(result, setups)
        as_timed = {
            "frames_per_s": statistics.median(frame_rates(reps)[1]),
            "setup_s": statistics.median(ready["ready_at"] - start for ready, start in samples),
        }
    units = metric_units()
    done = [rep for rep in reps if "error" not in rep]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "as_timed": as_timed,
        "quality": done[0]["quality"] if done else {},
        "setup_samples": setups,
        "reps": [
            {k: rep.get(k) for k in ("traced", "wall_s", "host_s", "frames", "error")}
            for rep in reps
        ],
        "problems": problems,
    }
    if args.trace:
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    print(summary(args.workload, args.seed, result, record))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the full record here")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="pin this run's outputs in reference.json (after a deliberate physics change)",
    )
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: record[key] for key in keys}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
