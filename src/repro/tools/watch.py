"""CLI: watch a running campaign live from its journal + snapshot stream.

Example::

    python -m repro.tools.watch --journal runs/tau.jsonl
    python -m repro.tools.watch --journal runs/tau.jsonl \\
        --snapshots runs/tau-live.jsonl --interval 0.5
    python -m repro.tools.watch --snapshots runs/serve-live.jsonl --once
    python -m repro.tools.watch --snapshots live.jsonl --once \\
        --prometheus-out metrics.prom

The watcher is a read-only tail over two append-only streams the run is
producing anyway: the campaign journal (``repro.campaign/1`` -- queue
transitions, leases, heartbeats) and the live snapshot stream
(``repro.obs.live/1`` JSONL written by ``--snapshot-out``).  It never
writes to either and can attach or detach at any point mid-run; torn
final lines -- the normal signature of a file being appended to this
instant -- are simply picked up on the next poll, and torn mid-file
heartbeat lines are skipped, exactly like the master's own supervision
tail.

The journal is folded through :class:`repro.campaign.queue.QueueState`,
the same fold resume, ``campaign status`` and the master itself use, so
fence rules hold here too: a fenced-off ``done`` is not counted.  Lease
health (LIVE / SLOW / STUCK) is classified with the same rule the
supervisor uses, so a SIGSTOPped worker shows up as STUCK here within
one heartbeat-staleness window even before the master reclaims it.
Pass the campaign's ``--heartbeat-s``/``--stuck-after`` values if they
differ from the defaults.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.campaign.queue import CampaignQueueError, QueueState, UnitState, UnitStatus
from repro.campaign.supervise import JournalTail, SupervisePolicy, lease_health
from repro.obs.live import LIVE_FORMAT, LiveCollector, render_prometheus

#: Unicode block ramp for sparklines (min .. max of the window).
_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """The classic one-line chart: last *width* values, min..max scaled."""
    window = list(values)[-width:]
    if not window:
        return ""
    lo = min(window)
    hi = max(window)
    if hi <= lo:
        return _BLOCKS[0] * len(window)
    span = hi - lo
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - lo) / span * len(_BLOCKS)))]
        for v in window
    )


def _as_str(record: dict[str, object], key: str, default: str = "") -> str:
    value = record.get(key, default)
    return default if value is None else str(value)


def _as_int(record: dict[str, object], key: str, default: int = 0) -> int:
    value = record.get(key, default)
    if isinstance(value, (int, float)):
        return int(value)
    return default


def _as_float(record: dict[str, object], key: str, default: float = 0.0) -> float:
    value = record.get(key, default)
    if isinstance(value, (int, float)):
        return float(value)
    return default


@dataclass
class WatchState:
    """A campaign journal tail folded through a :class:`QueueState`.

    The queue holds every unit; the watcher keeps only what a queue does
    not: the header, the master-incarnation count, the ``drained``
    marker, and how many records it read.  A record the queue rejects (a
    unit that no ``queued`` record introduced, an unreadable ``done``
    payload) is counted in :attr:`skipped`, not raised: the watcher
    renders whatever the journal proves.
    """

    header: dict[str, object] | None = None
    queue: QueueState = field(default_factory=QueueState)
    drained: bool = False
    incarnations: int = 0
    records: int = 0
    skipped: int = 0

    def feed(self, records: Sequence[dict[str, object]]) -> None:
        """Fold a batch of journal records into the view."""
        for record in records:
            self.records += 1
            event = record.get("event")
            if event == "campaign":
                self.header = record
            elif event == "master":
                self.incarnations += 1
            elif event == "drained":
                self.drained = True
            try:
                self.queue.fold(record)
            except CampaignQueueError:
                self.skipped += 1

    def status(self, entry: UnitState) -> str:
        """The shown status: a failed unit with attempts left is queued."""
        max_attempts = _as_int(self.header or {}, "max_attempts", 3)
        if entry.status is UnitStatus.FAILED and entry.attempts < max_attempts:
            return UnitStatus.QUEUED.value
        return entry.status.value

    def counts(self) -> dict[str, int]:
        """Units per shown status."""
        counts = {status.value: 0 for status in UnitStatus}
        for entry in self.queue.units.values():
            counts[self.status(entry)] += 1
        return counts

    @property
    def complete(self) -> bool:
        """Every expected unit is done, quarantined or out of attempts,
        or the campaign drained."""
        if self.drained:
            return True
        if self.header is None or not self.queue.units:
            return False
        counts = self.counts()
        finished = counts["done"] + counts["failed"] + counts["quarantined"]
        return finished >= _as_int(self.header, "units", len(self.queue.units))


def feed_snapshots(
    collector: LiveCollector, records: Sequence[dict[str, object]]
) -> int:
    """Fold ``repro.obs.live/1`` snapshot records into a series store.

    Foreign or torn records are skipped; returns how many were folded.
    The collector here is purely a display-side ring-buffer store -- it
    is never started and never writes.
    """
    folded = 0
    for record in records:
        if record.get("format") != LIVE_FORMAT:
            continue
        values = record.get("values")
        if not isinstance(values, dict):
            continue
        t = _as_float(record, "t", default=0.0)
        for name in sorted(values):
            value = values[name]
            if isinstance(value, (int, float)):
                collector.record(str(name), float(value), t=t or None)
        folded += 1
    return folded


def _format_age(now: float, then: float) -> str:
    return f"{max(0.0, now - then):.1f}s"


def render_frame(
    state: WatchState,
    collector: LiveCollector,
    *,
    now: float,
    policy: SupervisePolicy,
    skipped: int = 0,
) -> str:
    """One full watch frame as text (what ``--once`` prints verbatim)."""
    lines: list[str] = []
    if state.header is not None:
        suffix = "  [drained]" if state.drained else ""
        lines.append(f"campaign: {_as_str(state.header, 'spec')}")
        lines.append(
            f"  scale={_as_str(state.header, 'scale')} "
            f"seed={_as_int(state.header, 'seed')} "
            f"units={_as_int(state.header, 'units')}{suffix}"
        )
        counts = state.counts()
        lines.append("  " + " ".join(f"{s}={n}" for s, n in counts.items()))
        for entry in state.queue.leases():
            health = lease_health(entry, now, policy).value.upper()
            beat = (
                f"{_format_age(now, entry.last_heartbeat_s)} "
                f"(seq {entry.heartbeat_seq})"
                if entry.heartbeat_seq >= 0
                else "never"
            )
            lines.append(
                f"    [{health:>6}] {entry.key}  owner={entry.lease_owner} "
                f"fence={entry.fence} age={_format_age(now, entry.lease_granted_s)} "
                f"heartbeat={beat}"
            )
        for entry in state.queue.quarantined():
            lines.append(f"    [poison] {entry.key}  {entry.quarantine_error or ''}")
    elif state.records:
        lines.append(f"journal: {state.records} records, no campaign header yet")
    names = collector.names()
    if names:
        lines.append("series:")
        for name in names:
            series = collector.series(name)
            latest = series.latest()
            shown = f"{latest:g}" if latest is not None else "-"
            lines.append(
                f"  {name:<28} {shown:>12}  {sparkline(series.values())}"
            )
    if not lines:
        lines.append("waiting for journal/snapshot data...")
    skipped += state.skipped
    if skipped:
        lines.append(f"  note: {skipped} torn/foreign lines skipped")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.watch",
        description="Live (or one-shot) view over a campaign journal and "
        "repro.obs.live/1 snapshot stream.",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="campaign journal to tail (unit states, leases, heartbeats)",
    )
    parser.add_argument(
        "--snapshots",
        metavar="PATH",
        default=None,
        help="repro.obs.live/1 JSONL stream to tail (from --snapshot-out)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting / CI mode)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh cadence in live mode (default: 1.0)",
    )
    parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="the campaign's worker heartbeat interval",
    )
    parser.add_argument(
        "--stuck-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat staleness shown as STUCK "
        "(default: 4 x heartbeat interval)",
    )
    parser.add_argument(
        "--prometheus-out",
        metavar="PATH",
        default=None,
        help="on exit, write the tailed series in Prometheus text "
        "exposition format",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.journal is None and args.snapshots is None:
        parser.error("at least one of --journal / --snapshots is required")
    if args.interval <= 0.0:
        parser.error(f"--interval must be > 0, got {args.interval:g}")
    try:
        policy = SupervisePolicy.resolve(
            heartbeat_s=args.heartbeat_s, stuck_after_s=args.stuck_after
        )
    except ValueError as exc:
        parser.error(str(exc))

    journal_tail = JournalTail(args.journal) if args.journal else None
    snapshot_tail = JournalTail(args.snapshots) if args.snapshots else None
    state = WatchState()
    collector = LiveCollector()
    try:
        while True:
            if journal_tail is not None:
                state.feed(journal_tail.poll())
            if snapshot_tail is not None:
                feed_snapshots(collector, snapshot_tail.poll())
            skipped = (journal_tail.skipped if journal_tail else 0) + (
                snapshot_tail.skipped if snapshot_tail else 0
            )
            frame = render_frame(
                state, collector, now=time.time(), policy=policy, skipped=skipped
            )
            if args.once:
                print(frame)
                break
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            if state.complete:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if args.prometheus_out is not None:
        with open(args.prometheus_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(collector))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
