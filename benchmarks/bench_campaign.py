"""Campaign kill/resume: the crash-recovery determinism acceptance test.

The claim under test is ``repro.campaign``'s reason to exist: a campaign
is resumable after the master dies -- hard, mid-dispatch, ``SIGKILL`` --
and the resumed run's aggregated report is **byte-identical** to the
same campaign run straight through, because completed units are
recovered from the journal and every unit's result is a pure function of
its own spawn-keyed seed.

The benchmark:

1. runs the campaign uninterrupted in-process (the reference report);
2. launches ``python -m repro.tools.campaign run`` as a subprocess,
   polls the journal until a few units have durably completed, and
   ``SIGKILL``\\ s the master mid-campaign;
3. resumes from the survivor journal (at a *different* worker count, to
   exercise the scheduling-independence claim at the same time);
4. asserts ``metrics_json()`` and ``report_json()`` equality and reports
   how much work the journal saved.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_campaign.py --out campaign.json
    PYTHONPATH=src python benchmarks/bench_campaign.py --quick

or under pytest (quick mode -- this is what CI smoke-runs)::

    pytest benchmarks/bench_campaign.py --benchmark-only

``--chaos`` switches to the orchestration chaos harness
(:func:`repro.campaign.chaos.run_chaos_campaign`): the campaign runs as
a real subprocess fleet, the harness SIGKILLs one pool worker and
SIGSTOPs another mid-unit, and the acceptance criteria tighten to (a)
the recovered ``report_json()`` being byte-identical to the chaos-free
run and (b) the stalled worker's lease being reclaimed via heartbeat
staleness strictly before its wall-clock lease timeout::

    PYTHONPATH=src python benchmarks/bench_campaign.py --chaos --quick
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import repro
from repro.campaign import CampaignJournal, CampaignMaster
from repro.campaign.chaos import ChaosScheduleError, run_chaos_campaign

#: The benchmark campaign: swept parameter x fault plan x heal -- 8 units,
#: half of them faulted (the determinism claim must include those).
SPEC = "parameter=tau:8,12|faults=none,drop:p=0.3|heal=on,off"
#: Kill the master once this many units are durably recorded.
KILL_AFTER_DONE = 3
#: Give the subprocess this long before declaring the poll stuck.
POLL_TIMEOUT_S = 300.0
#: The ``--chaos`` schedule: SIGKILL one worker mid-unit, SIGSTOP
#: another long enough for heartbeat staleness to reclaim its lease.
CHAOS_SCHEDULE = "kill:unit=1;stall:unit=6,dur=2.0"


def _src_path() -> str:
    """The ``src`` directory the subprocess must import ``repro`` from."""
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _count_done(journal_path: str) -> int:
    try:
        with open(journal_path, encoding="utf-8") as handle:
            return sum(1 for line in handle if '"event":"done"' in line)
    except OSError:
        return 0


def run_killed_campaign(
    journal_path: str, *, scale: str, kill_after_done: int
) -> dict:
    """Start a campaign subprocess and SIGKILL it mid-dispatch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_path() + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tools.campaign", "run",
            "--spec", SPEC, "--scale", scale, "--journal", journal_path,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + POLL_TIMEOUT_S
    done_at_kill = 0
    killed = False
    try:
        while time.monotonic() < deadline:
            done_at_kill = _count_done(journal_path)
            if done_at_kill >= kill_after_done and proc.poll() is None:
                proc.kill()  # SIGKILL -- no cleanup, no atexit, no flush
                killed = True
                break
            if proc.poll() is not None:
                break  # finished before we could kill it (still a valid run)
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            proc.kill()
            killed = True
        proc.wait()
    return {
        "killed": killed,
        "returncode": proc.returncode,
        "done_at_kill": done_at_kill,
    }


def measure_kill_resume(
    scale: str = "quick",
    workers: int | None = None,
    resume_workers: int | None = 4,
    kill_after_done: int = KILL_AFTER_DONE,
    journal_dir: str | None = None,
) -> dict:
    """The full kill/resume cycle; returns the comparison record."""
    import tempfile

    with tempfile.TemporaryDirectory(dir=journal_dir) as tmp:
        journal_path = os.path.join(tmp, "campaign.jsonl")

        wall0 = time.perf_counter()
        reference = CampaignMaster(SPEC, scale=scale, workers=workers).run()
        reference_s = time.perf_counter() - wall0

        wall0 = time.perf_counter()
        kill = run_killed_campaign(
            journal_path, scale=scale, kill_after_done=kill_after_done
        )
        killed_s = time.perf_counter() - wall0

        wall0 = time.perf_counter()
        master = CampaignMaster.resume(
            CampaignJournal(journal_path), workers=resume_workers
        )
        resumed = master.run(resume=True)
        resume_s = time.perf_counter() - wall0

    ref_report = reference.report
    res_report = resumed.report
    return {
        "bench": "campaign",
        "spec": SPEC,
        "scale": scale,
        "units": reference.stats.units_total,
        "kill": kill,
        "resume": {
            "reused": resumed.stats.reused,
            "executed": resumed.stats.executed,
            "torn_tail": resumed.stats.torn_tail,
            "workers": resumed.stats.workers,
        },
        "elapsed_s": {
            "reference": reference_s,
            "until_kill": killed_s,
            "resume": resume_s,
        },
        "reports": {
            "counts": ref_report.counts(),
            "metrics_json_identical": (
                res_report.metrics_json() == ref_report.metrics_json()
            ),
            "report_json_identical": (
                res_report.report_json() == ref_report.report_json()
            ),
        },
        "metrics_json": ref_report.metrics_json(),
        "report": ref_report.as_dict(),
    }


def measure_chaos(
    scale: str = "quick",
    schedule: str = CHAOS_SCHEDULE,
    workers: int = 2,
    workdir: str | None = None,
) -> dict:
    """SIGKILL + SIGSTOP real workers mid-campaign; compare the reports.

    When *workdir* is given the journals and reports are left there for
    inspection (the CI chaos job uploads them as artifacts); otherwise a
    temporary directory is used and cleaned up.
    """
    import contextlib
    import tempfile

    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(tempfile.TemporaryDirectory())
        wall0 = time.perf_counter()
        result = run_chaos_campaign(
            SPEC, schedule, workdir, scale=scale, workers=workers
        )
        elapsed_s = time.perf_counter() - wall0
    reclaims = [
        {
            "unit": r.unit,
            "fence": r.fence,
            "margin_s": r.lease_expires_at - r.reclaimed_at,
            "beat_wall_clock": r.beat_wall_clock,
        }
        for r in result.stuck_reclaims
    ]
    return {
        "bench": "campaign-chaos",
        "spec": SPEC,
        "scale": scale,
        "schedule": schedule,
        "workers": workers,
        "elapsed_s": elapsed_s,
        "injected": list(result.injected),
        "resumes": result.resumes,
        "exit_codes": list(result.exit_codes),
        "deaths": result.deaths,
        "quarantined": result.quarantined,
        "stuck_reclaims": reclaims,
        "report_json_identical": result.identical,
        # Vacuously true when the schedule stalls nobody; with a stall,
        # the reclaim must beat the wall-clock lease timeout.
        "stall_reclaimed_before_timeout": (
            "stall" not in schedule
            or any(r["beat_wall_clock"] for r in reclaims)
        ),
        "summary": result.summary(),
    }


def format_chaos_report(record: dict) -> str:
    """The human-readable chaos summary printed next to the JSON."""
    verdict = (
        "byte-identical" if record["report_json_identical"] else "DIVERGED"
    )
    staleness = (
        "reclaimed before lease timeout"
        if record["stall_reclaimed_before_timeout"]
        else "NOT reclaimed before lease timeout"
    )
    lines = [
        f"campaign chaos: {record['schedule']} on {record['spec']}",
        f"  elapsed            {record['elapsed_s']:8.2f} s  "
        f"(resumes={record['resumes']}, exit_codes={record['exit_codes']})",
        f"  worker deaths      {record['deaths']}  "
        f"(quarantined={record['quarantined']})",
        f"  stalled lease      {staleness}",
        f"  report_json        {verdict}",
    ]
    for item in record["injected"]:
        lines.append(f"  injected {item}")
    for reclaim in record["stuck_reclaims"]:
        lines.append(
            f"  reclaimed {reclaim['unit']} (fence {reclaim['fence']}) "
            f"{reclaim['margin_s']:.1f}s before its lease timeout"
        )
    return "\n".join(lines)


def format_report(record: dict) -> str:
    """The human-readable table printed next to the JSON."""
    kill = record["kill"]
    res = record["resume"]
    rep = record["reports"]
    t = record["elapsed_s"]
    killed_text = (
        f"SIGKILL after {kill['done_at_kill']} units (rc={kill['returncode']})"
        if kill["killed"]
        else "finished before the kill landed"
    )
    return "\n".join(
        [
            f"campaign kill/resume: {record['units']} units on {record['spec']}",
            f"  reference run      {t['reference']:8.2f} s  "
            f"({rep['counts']['ok']} ok, {rep['counts']['invalid']} invalid)",
            f"  killed run         {t['until_kill']:8.2f} s  ({killed_text})",
            f"  resume             {t['resume']:8.2f} s  "
            f"(reused {res['reused']}, executed {res['executed']}, "
            f"workers={res['workers']})",
            f"  metrics_json       {'byte-identical' if rep['metrics_json_identical'] else 'DIVERGED'}",
            f"  report_json        {'byte-identical' if rep['report_json_identical'] else 'DIVERGED'}",
        ]
    )


# ----------------------------------------------------------------------
# pytest entry point (quick mode -- this is what CI smoke-runs)
# ----------------------------------------------------------------------
def test_campaign_kill_resume(benchmark, emit, results_dir):
    from conftest import run_once

    record = run_once(benchmark, lambda: measure_kill_resume(scale="quick"))
    emit("bench_campaign_quick", format_report(record))
    with open(os.path.join(results_dir, "bench_campaign_quick.json"), "w") as f:
        json.dump(record, f, indent=2)
    # The acceptance criteria: a killed-and-resumed campaign aggregates
    # byte-identically to the uninterrupted run, faulted units included.
    assert record["reports"]["metrics_json_identical"]
    assert record["reports"]["report_json_identical"]
    assert record["reports"]["counts"]["ok"] == record["units"]
    # The journal actually saved work (unless the run won the race).
    if record["kill"]["killed"]:
        assert record["resume"]["reused"] >= 1
        assert record["resume"]["executed"] <= record["units"]


def test_campaign_chaos(benchmark, emit, results_dir):
    from conftest import run_once

    record = run_once(benchmark, lambda: measure_chaos(scale="quick"))
    emit("bench_campaign_chaos", format_chaos_report(record))
    with open(os.path.join(results_dir, "bench_campaign_chaos.json"), "w") as f:
        json.dump(record, f, indent=2)
    # The supervision acceptance criteria: a campaign whose workers were
    # SIGKILLed and SIGSTOPed mid-unit aggregates byte-identically, and
    # the stalled worker's lease is reclaimed via heartbeat staleness
    # strictly before its wall-clock lease timeout would have fired.
    assert record["report_json_identical"]
    assert record["stall_reclaimed_before_timeout"]
    assert record["deaths"] >= 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help="quick scale (the CI shape)"
    )
    parser.add_argument(
        "--scale", choices=("quick", "benchmark", "full"), default=None
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--resume-workers", type=int, default=4,
        help="worker count for the resumed master (differs on purpose)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=KILL_AFTER_DONE,
        help="SIGKILL the master once this many units are journaled done",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the orchestration chaos harness instead of kill/resume",
    )
    parser.add_argument(
        "--chaos-schedule", default=CHAOS_SCHEDULE, metavar="SPEC",
        help="fault schedule for --chaos "
        "(e.g. 'kill:unit=1;stall:unit=6,dur=2.0')",
    )
    parser.add_argument(
        "--chaos-dir", default=None, metavar="DIR",
        help="keep the chaos journals/reports here (default: temp dir)",
    )
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)
    scale = args.scale or ("quick" if args.quick else "benchmark")
    if args.chaos:
        try:
            record = measure_chaos(
                scale=scale,
                schedule=args.chaos_schedule,
                workers=args.workers or 2,
                workdir=args.chaos_dir,
            )
        except ChaosScheduleError as exc:
            parser.error(f"--chaos-schedule: {exc}")
        print(format_chaos_report(record))
        if args.out:
            with open(args.out, "w") as f:
                json.dump(record, f, indent=2)
        ok = (
            record["report_json_identical"]
            and record["stall_reclaimed_before_timeout"]
        )
        return 0 if ok else 1
    record = measure_kill_resume(
        scale=scale,
        workers=args.workers,
        resume_workers=args.resume_workers,
        kill_after_done=args.kill_after,
    )
    print(format_report(record))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
    ok = (
        record["reports"]["metrics_json_identical"]
        and record["reports"]["report_json_identical"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
