"""Lease supervision: heartbeats, health classification, reclamation.

A wall-clock lease timeout alone cannot tell a *slow* worker from a
*stuck* one: a SIGSTOPped (or deadlocked, or swapping) worker holds its
lease until the timeout fires, stalling the campaign for minutes over a
fault that is detectable in seconds.  Supervision closes that gap with
three cooperating pieces:

* :class:`HeartbeatEmitter` -- a worker-side daemon thread that appends
  ``heartbeat`` records (per-lease ``seq`` numbers, emitting pid, wall
  time) to the journal while a unit executes.  Heartbeats are advisory:
  they never change queue state, and a torn heartbeat line is skipped on
  replay (:func:`~repro.campaign.journal.salvage_torn_line`).
* :class:`JournalTail` -- the master's incremental reader over the same
  file, consuming only newline-complete records so a heartbeat being
  written this instant is simply picked up next poll.
* :class:`Supervisor` -- classifies every in-flight lease as **LIVE**
  (fresh heartbeats), **SLOW** (heartbeating, but past its soft
  deadline -- the lease is *extended* with bounded exponential backoff),
  or **STUCK** (heartbeat-stale -- the lease is *fenced and reclaimed
  immediately*, no wall-timeout wait).  It reads the leases from the
  master's :class:`~repro.campaign.queue.QueueState`, into which the
  master applies the heartbeats it tails; decisions are returned to the
  master, which journals them; the supervisor never writes.

The classification rule, given ``policy``::

    beating lease:  STUCK iff now - last heartbeat > policy.stuck_after_s
    silent lease:   STUCK iff now - lease granted  > policy.first_beat_grace_s
    otherwise:      SLOW  iff now - lease granted  > current soft deadline
                    LIVE  else

A lease that has never heartbeated is *not* judged on the tight
staleness clock: the unit may simply be waiting for a free pool worker
(leases are granted at dispatch, execution starts when a worker picks
the unit up), and a slow worker spawn looks identical to a dead one.
Such leases get the more generous first-beat grace, and their reclaim
reason is ``unstarted`` -- not counted toward quarantine, because the
silence proves nothing about the unit.  A worker that dies before its
first beat is additionally caught by the engine's pool-crash path
(``failed kind="died"``), and the wall-clock lease timeout remains the
backstop of last resort.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from repro.campaign.journal import CampaignJournal, JournalRecord
from repro.campaign.queue import QueueState, UnitState

#: ``chaos(unit_index, seq) -> (emit, delay_s)`` -- lets the chaos
#: harness drop or delay heartbeats inside a worker (see
#: :func:`repro.campaign.chaos.heartbeat_filter_from_env`).
HeartbeatFilter = Callable[[int, int], tuple[bool, float]]


class LeaseHealth(Enum):
    """The supervisor's verdict on one in-flight lease."""

    LIVE = "live"
    SLOW = "slow"
    STUCK = "stuck"


@dataclass(frozen=True)
class SupervisePolicy:
    """The knobs of the supervision loop.

    Attributes
    ----------
    heartbeat_s:
        Interval at which workers append ``heartbeat`` records mid-unit.
    stuck_after_s:
        Heartbeat staleness that makes a lease STUCK.  Must comfortably
        exceed ``heartbeat_s`` (a missed beat is not a stuck worker);
        :meth:`resolve` defaults it to ``4 x heartbeat_s``.
    first_beat_grace_s:
        Lease age at which a lease that never heartbeated is reclaimed
        (reason ``unstarted``).  Defaults to ``4 x stuck_after_s`` --
        generous, because a unit waiting for a free pool worker is
        silent and innocent.
    soft_deadline_s:
        Lease age past which a still-heartbeating lease is SLOW and gets
        extended; defaults to a quarter of the hard lease timeout.
    max_extensions:
        Bound on extensions per lease.  Extension *n* pushes the hard
        expiry out by ``soft_deadline_s * 2**n`` -- bounded exponential
        backoff; after the last extension the hard timeout is final.
    quarantine_after:
        A unit whose lease was reclaimed this many times, or whose
        worker died this many times, is quarantined (poison unit).
    tick_s:
        How often the master polls the journal tail and re-classifies.
    """

    heartbeat_s: float = 1.0
    stuck_after_s: float = 4.0
    first_beat_grace_s: float = 16.0
    soft_deadline_s: float = 150.0
    max_extensions: int = 3
    quarantine_after: int = 3
    tick_s: float = 0.25

    @classmethod
    def resolve(
        cls,
        *,
        heartbeat_s: float = 1.0,
        stuck_after_s: float | None = None,
        first_beat_grace_s: float | None = None,
        soft_deadline_s: float | None = None,
        max_extensions: int = 3,
        quarantine_after: int = 3,
        lease_timeout_s: float = 600.0,
        tick_s: float | None = None,
    ) -> "SupervisePolicy":
        """Fill the derived defaults and validate the relationships."""
        if heartbeat_s <= 0.0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if stuck_after_s is None:
            stuck_after_s = 4.0 * heartbeat_s
        if stuck_after_s <= heartbeat_s:
            raise ValueError(
                f"stuck_after_s ({stuck_after_s}) must exceed heartbeat_s "
                f"({heartbeat_s}): one missed beat is not a stuck worker"
            )
        if stuck_after_s >= lease_timeout_s:
            raise ValueError(
                f"stuck_after_s ({stuck_after_s}) must be below the hard "
                f"lease timeout ({lease_timeout_s}); otherwise supervision "
                "never beats the wall clock"
            )
        if first_beat_grace_s is None:
            first_beat_grace_s = 4.0 * stuck_after_s
        if first_beat_grace_s < stuck_after_s:
            raise ValueError(
                f"first_beat_grace_s ({first_beat_grace_s}) must be >= "
                f"stuck_after_s ({stuck_after_s}): silence before the first "
                "beat proves less, not more"
            )
        if soft_deadline_s is None:
            soft_deadline_s = lease_timeout_s / 4.0
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {quarantine_after}")
        if tick_s is None:
            tick_s = max(min(heartbeat_s / 2.0, 1.0), 0.02)
        return cls(
            heartbeat_s=float(heartbeat_s),
            stuck_after_s=float(stuck_after_s),
            first_beat_grace_s=float(first_beat_grace_s),
            soft_deadline_s=float(soft_deadline_s),
            max_extensions=int(max_extensions),
            quarantine_after=int(quarantine_after),
            tick_s=float(tick_s),
        )


def classify_lease(
    now: float,
    granted_s: float,
    last_heartbeat_s: float,
    policy: SupervisePolicy,
    *,
    has_beats: bool = True,
) -> LeaseHealth:
    """The pure classification rule (see module docstring)."""
    if has_beats:
        if now - max(granted_s, last_heartbeat_s) > policy.stuck_after_s:
            return LeaseHealth.STUCK
    elif now - granted_s > policy.first_beat_grace_s:
        return LeaseHealth.STUCK
    if now - granted_s > policy.soft_deadline_s:
        return LeaseHealth.SLOW
    return LeaseHealth.LIVE


def lease_health(
    entry: UnitState, now: float, policy: SupervisePolicy
) -> LeaseHealth:
    """:func:`classify_lease` applied to one queue entry's lease."""
    return classify_lease(
        now, entry.lease_granted_s, entry.last_heartbeat_s, policy,
        has_beats=entry.heartbeat_seq >= 0,
    )


@dataclass(frozen=True)
class Extend:
    """Decision: push a SLOW lease's hard expiry out (bounded backoff)."""

    key: str
    index: int
    fence: int
    expires_s: float
    extension: int


@dataclass(frozen=True)
class Reclaim:
    """Decision: fence a STUCK lease and make the unit runnable now."""

    key: str
    index: int
    fence: int
    reason: str = "stuck"


class Supervisor:
    """Classifies a master's leases and emits extend/reclaim decisions.

    The supervisor keeps no lease table: it reads the leases *owner*
    holds in *queue*, the master's fold of its own journal.  It holds no
    journal handle and appends nothing either: the master asks for
    decisions (:meth:`decide`) and journals -- and so applies -- what it
    chooses to honor.  That keeps the journal single-writer for state
    transitions and makes the supervisor trivially unit-testable with
    synthetic clocks.
    """

    def __init__(self, policy: SupervisePolicy, queue: QueueState, owner: str) -> None:
        self.policy = policy
        self.queue = queue
        self.owner = owner
        # When each slow lease, keyed by (unit, fence), may be extended
        # next: the one supervision fact no journal record carries.
        self._next_extension_s: dict[tuple[str, int], float] = {}

    def held(self) -> list[UnitState]:
        """The queue's leases granted by *owner*, in index order."""
        return [entry for entry in self.queue.leases() if entry.lease_owner == self.owner]

    def health_counts(self, now: float) -> dict[str, int]:
        """How many held leases are live / slow / stuck at time *now*.

        The campaign master records these into the live telemetry
        side-channel each tick; the snapshot stream is what lets
        ``repro.tools.watch`` draw fleet health without replaying the
        journal itself.
        """
        counts = {health.value: 0 for health in LeaseHealth}
        for entry in self.held():
            counts[lease_health(entry, now, self.policy).value] += 1
        return counts

    def decide(self, now: float) -> list[Extend | Reclaim]:
        """Extend the SLOW, reclaim the STUCK.

        Decisions come back in lease index order so the journal record
        sequence is deterministic given the same classification outcome.
        """
        decisions: list[Extend | Reclaim] = []
        for entry in self.held():
            health = lease_health(entry, now, self.policy)
            if health is LeaseHealth.STUCK:
                # A lease that never beat is reclaimed as `unstarted`,
                # which does not count toward quarantine: the silence
                # indicts the worker slot, not the unit.
                reason = "stuck" if entry.heartbeat_seq >= 0 else "unstarted"
                decisions.append(
                    Reclaim(key=entry.key, index=entry.index, fence=entry.fence,
                            reason=reason)
                )
                continue
            lease = (entry.key, entry.fence)
            due_s = self._next_extension_s.get(
                lease, entry.lease_granted_s + self.policy.soft_deadline_s
            )
            if (
                health is LeaseHealth.SLOW
                and now >= due_s
                and entry.extensions < self.policy.max_extensions
            ):
                extension = entry.extensions + 1
                backoff = self.policy.soft_deadline_s * (2.0 ** extension)
                self._next_extension_s[lease] = now + backoff
                decisions.append(
                    Extend(
                        key=entry.key,
                        index=entry.index,
                        fence=entry.fence,
                        expires_s=entry.lease_expires_s + backoff,
                        extension=extension,
                    )
                )
        return decisions


# ----------------------------------------------------------------------
# Worker side: the heartbeat emitter
# ----------------------------------------------------------------------
class HeartbeatEmitter:
    """A daemon thread appending ``heartbeat`` records while a unit runs.

    The first beat (``seq`` 0) is emitted immediately on :meth:`start`,
    so the supervisor (and the chaos harness, which learns worker pids
    from heartbeats) sees a lease come alive without waiting a full
    interval.  Journal trouble (disk full, unlinked path) is swallowed:
    losing heartbeats degrades supervision to the wall-clock timeout, it
    must never fail the unit.
    """

    def __init__(
        self,
        journal_path: str | Path,
        *,
        key: str,
        index: int,
        fence: int,
        worker: str,
        interval_s: float,
        chaos: HeartbeatFilter | None = None,
    ) -> None:
        self.journal = CampaignJournal(journal_path)
        self.key = key
        self.index = index
        self.fence = fence
        self.worker = worker
        self.interval_s = float(interval_s)
        self.chaos = chaos
        self.emitted = 0
        self._seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _beat(self) -> None:
        seq = self._seq
        self._seq += 1
        if self.chaos is not None:
            emit, delay_s = self.chaos(self.index, seq)
            if delay_s > 0.0:
                self._stop.wait(delay_s)
            if not emit:
                return
        try:
            self.journal.append(
                {
                    "event": "heartbeat",
                    "unit": self.key,
                    "index": self.index,
                    "fence": self.fence,
                    "seq": seq,
                    "worker": self.worker,
                    "pid": os.getpid(),
                    "t": time.time(),
                }
            )
            self.emitted += 1
        except OSError:
            pass  # advisory record; never fail the unit over it

    def _run(self) -> None:
        while not self._stop.is_set():
            self._beat()
            self._stop.wait(self.interval_s)

    def start(self) -> "HeartbeatEmitter":
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{self.index}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HeartbeatEmitter":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Master side: the incremental journal reader
# ----------------------------------------------------------------------
class JournalTail:
    """Incremental reader over a journal another process is appending to.

    Consumes only newline-complete lines: a record being written this
    instant stays in the file until the next :meth:`poll`.  Unparseable
    complete lines (a torn heartbeat a later append ran into) are
    counted in :attr:`skipped` and dropped -- the authoritative
    torn-line policy lives in :meth:`CampaignJournal.read`; the tail
    only ever feeds the advisory supervision path.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.skipped = 0

    def poll(self) -> list[JournalRecord]:
        """Every complete record appended since the last poll."""
        import json

        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except OSError:
            return []
        if not chunk:
            return []
        end = chunk.rfind(b"\n")
        if end < 0:
            return []  # nothing newline-complete yet
        self.offset += end + 1
        records: list[JournalRecord] = []
        for line in chunk[: end + 1].splitlines():
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                self.skipped += 1
                continue
            if isinstance(payload, dict):
                records.append(payload)
            else:
                self.skipped += 1
        return records
