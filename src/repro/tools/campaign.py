"""CLI: run, resume, and inspect scenario-matrix campaigns.

Example::

    python -m repro.tools.campaign run \\
        --spec 'parameter=tau:8,12,16|faults=none,drop:p=0.1|heal=on,off' \\
        --journal runs/tau.jsonl --scale quick --workers 4
    python -m repro.tools.campaign resume --journal runs/tau.jsonl
    python -m repro.tools.campaign status --journal runs/tau.jsonl
    python -m repro.tools.campaign report --journal runs/tau.jsonl --json

``run`` executes a fresh campaign (journaling every transition when
``--journal`` is given); ``resume`` continues a journaled campaign after
any crash, keeping completed units and re-leasing the rest; ``status``
and ``report`` only replay the journal -- nothing executes; ``compact``
rewrites a long journal to header + terminal records.

Supervision (``--heartbeat-s``/``--stuck-after``/``--quarantine-after``)
is active whenever a journal is given: workers heartbeat into the
journal, heartbeat-stale leases are fenced and reclaimed immediately,
and poison units are quarantined.  SIGTERM drains gracefully
(``--drain-timeout``).  The :data:`repro.campaign.chaos.CHAOS_ENV`
environment variable arms in-process fault injection (heartbeat
drop/delay, journal append tears) for the chaos harness.
"""

from __future__ import annotations

import argparse
import json
from typing import cast

from repro.campaign import (
    CampaignJournal,
    CampaignJournalError,
    CampaignMaster,
    CampaignOutcome,
    CampaignQueueError,
    CampaignReport,
    CampaignSpecError,
    journal_status,
    report_from_journal,
)
from repro.campaign.chaos import tamper_from_env
from repro.campaign.journal import compact_journal
from repro.campaign.supervise import SupervisePolicy
from repro.tools.simulate import LiveSession, add_live_arguments


def _add_journal_argument(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument(
        "--journal",
        metavar="PATH",
        required=required,
        default=None,
        help="the campaign's append-only JSONL transition log",
    )


def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="write the aggregated report as JSON",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as canonical JSON instead of a summary",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for unit execution "
        "(default: one per usable CPU, at most 8)",
    )
    parser.add_argument(
        "--heartbeat-s", type=float, default=1.0, metavar="SECONDS",
        help="worker heartbeat interval (journaled runs only)",
    )
    parser.add_argument(
        "--stuck-after", type=float, default=None, metavar="SECONDS",
        help="heartbeat staleness that reclaims a lease "
        "(default: 4 x heartbeat interval)",
    )
    parser.add_argument(
        "--quarantine-after", type=int, default=3, metavar="N",
        help="reclaims or worker deaths before a unit is quarantined",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="after SIGTERM, how long in-flight units get to finish",
    )
    add_live_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.campaign",
        description="Resumable master/worker campaigns over the scenario matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a fresh campaign")
    run.add_argument(
        "--spec",
        required=True,
        help="campaign axes, e.g. 'parameter=tau:8,12|faults=none,drop:p=0.1|heal=on,off'",
    )
    _add_journal_argument(run, required=False)
    run.add_argument(
        "--scale", choices=("quick", "benchmark", "full"), default="benchmark"
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--payload-bytes", type=int, default=64,
        help="payload size for transport/fleet workloads",
    )
    run.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed namespace for fault plans (default: derived per unit)",
    )
    run.add_argument(
        "--lease-timeout", type=float, default=600.0, metavar="SECONDS",
        help="how long a unit lease stays valid",
    )
    run.add_argument(
        "--max-attempts", type=int, default=3,
        help="tries a retryably-failing unit gets before reporting failed",
    )
    _add_run_arguments(run)
    _add_report_arguments(run)

    resume = sub.add_parser("resume", help="continue a journaled campaign")
    _add_journal_argument(resume)
    _add_run_arguments(resume)
    _add_report_arguments(resume)

    status = sub.add_parser("status", help="replay a journal into a status snapshot")
    _add_journal_argument(status)
    status.add_argument("--json", action="store_true", help="print JSON")

    rep = sub.add_parser("report", help="aggregate whatever a journal recorded")
    _add_journal_argument(rep)
    _add_report_arguments(rep)

    compact = sub.add_parser(
        "compact", help="rewrite a journal to header + terminal records"
    )
    _add_journal_argument(compact)
    compact.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the compacted journal here instead of in place",
    )

    return parser


def _write_report(path: str | None, report: CampaignReport) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _emit_report(args: argparse.Namespace, report: CampaignReport) -> None:
    _write_report(args.report_out, report)
    if args.json:
        print(report.report_json())
    else:
        print(report.summary())


def _chaos_journal(path: str) -> CampaignJournal:
    """The master's journal, with chaos tear injection armed if enabled."""
    return CampaignJournal(path, tamper=tamper_from_env(path, role="master"))


def _policy(args: argparse.Namespace, lease_timeout_s: float) -> SupervisePolicy:
    return SupervisePolicy.resolve(
        heartbeat_s=args.heartbeat_s,
        stuck_after_s=args.stuck_after,
        quarantine_after=args.quarantine_after,
        lease_timeout_s=lease_timeout_s,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    journal = _chaos_journal(args.journal) if args.journal else None
    master = CampaignMaster(
        args.spec,
        journal=journal,
        scale=args.scale,
        seed=args.seed,
        payload_bytes=args.payload_bytes,
        fault_seed=args.fault_seed,
        workers=args.workers,
        lease_timeout_s=args.lease_timeout,
        max_attempts=args.max_attempts,
        supervise=_policy(args, args.lease_timeout),
        drain_timeout_s=args.drain_timeout,
    )
    live = LiveSession(args)
    with live:
        outcome = master.run()
    _emit_report(args, outcome.report)
    _emit_profile(args, live)
    return _exit_code(outcome)


def _cmd_resume(args: argparse.Namespace) -> int:
    journal = _chaos_journal(args.journal)
    header = journal.read().header
    lease_timeout_s = (
        float(cast(float, header["lease_timeout_s"])) if header else 600.0
    )
    master = CampaignMaster.resume(
        journal,
        workers=args.workers,
        supervise=_policy(args, lease_timeout_s),
        drain_timeout_s=args.drain_timeout,
    )
    live = LiveSession(args)
    with live:
        outcome = master.run(resume=True)
    _emit_report(args, outcome.report)
    _emit_profile(args, live)
    return _exit_code(outcome)


def _emit_profile(args: argparse.Namespace, live: LiveSession) -> None:
    profile = live.profile_summary()
    if profile is not None and not args.json:
        print(profile)


def _exit_code(outcome: CampaignOutcome) -> int:
    """0 when every unit has a standing result (ok or invalid), 1 otherwise."""
    counts = outcome.report.counts()
    return 0 if counts["failed"] == 0 and counts["missing"] == 0 else 1


def _format_age(seconds: object) -> str:
    if seconds is None:
        return "never"
    return f"{float(cast(float, seconds)):.1f}s"


def _cmd_status(args: argparse.Namespace) -> int:
    snapshot = journal_status(CampaignJournal(args.journal))
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
        return 0
    counts = snapshot["counts"]
    assert isinstance(counts, dict)
    print(f"campaign: {snapshot['spec']}")
    print(
        f"  scale={snapshot['scale']} seed={snapshot['seed']} "
        f"units={snapshot['units']}"
    )
    print("  " + " ".join(f"{name}={counts[name]}" for name in sorted(counts)))
    leases = cast("list[dict[str, object]]", snapshot["leases"])
    for lease in leases:
        print(
            f"    [ leased] {lease['unit']}  owner={lease['owner']} "
            f"fence={lease['fence']} age={_format_age(lease['lease_age_s'])} "
            f"heartbeat={_format_age(lease['heartbeat_age_s'])} "
            f"(seq {lease['heartbeat_seq']}) "
            f"expires_in={_format_age(lease['expires_in_s'])}"
        )
    quarantined = cast("list[dict[str, object]]", snapshot["quarantined"])
    for row in quarantined:
        print(
            f"    [ poison] {row['unit']}  reclaims={row['reclaims']} "
            f"deaths={row['deaths']}: {row['error']}"
        )
    for warning in cast("list[str]", snapshot["warnings"]):
        print(f"  warning: {warning}")
    if snapshot["torn_tail"]:
        print("  note: journal ends in a crash-torn line (ignored)")
    if snapshot["drained"]:
        print("  note: campaign was drained cleanly (SIGTERM)")
    print(f"  complete: {snapshot['complete']}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    before, after = compact_journal(CampaignJournal(args.journal), out=args.out)
    target = args.out or args.journal
    print(f"compacted {args.journal}: {before} -> {after} records ({target})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = report_from_journal(CampaignJournal(args.journal))
    _emit_report(args, report)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "status": _cmd_status,
        "report": _cmd_report,
        "compact": _cmd_compact,
    }
    try:
        return commands[args.command](args)
    except (CampaignSpecError, CampaignJournalError, CampaignQueueError) as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
