"""Queue state: the journal replayed into per-unit lifecycle records.

The persistent queue is *derived*, never stored: replaying a journal's
records through :meth:`QueueState.apply` reconstructs exactly the state
the dead master had durably recorded, which is what makes ``--resume``
safe after any crash.  :meth:`QueueState.apply` is the only code that
changes a unit's state: a live master applies each record right after it
appends it (and the heartbeats it tails), so its queue is the replay of
its own journal by construction, and ``repro.tools.watch`` folds a
journal tail through the same method.

Lifecycle::

    QUEUED --lease--> LEASED --done--> DONE              (terminal)
       ^                 |----failed--> FAILED --lease--> ...
       |                 |
       '---reclaimed-----'        too many reclaims/deaths
                                  --> QUARANTINED        (terminal)

``done`` is terminal and first-wins: if a unit is somehow completed
twice (a worker finishing just before its lease is declared dead, then
the re-leased copy finishing too), the first recorded result stands and
the duplicate is ignored -- so the aggregated report never double-counts
a unit no matter how messy the crash history was.

**Fencing.**  Every lease grant carries a *fence token*: a per-unit
monotonically increasing integer.  A ``done``/``failed`` record is valid
only if its fence is the unit's *newest* granted fence and that fence
has not been revoked by a ``reclaimed`` record.  A worker that was
SIGSTOPped, declared stuck, reclaimed, and later resumed can therefore
never corrupt the queue: its late records carry a stale fence and are
rejected deterministically on replay -- first *valid* fence wins, so the
standing result (and with it :class:`~repro.campaign.report.
CampaignReport`) is identical under any reclamation history.  Records
without a fence (pre-fencing journals) are always considered valid.

A lease is *runnable again* when it has expired (wall clock), when it is
owned by a different master incarnation (journals are single-master, so
a foreign owner is by definition a dead one, and resume does not have to
wait out its lease timeout), or when it was explicitly reclaimed by the
supervisor (heartbeat-stale -- see :mod:`repro.campaign.supervise`).

**Poison units.**  ``failed`` records are two-budget: ``kind="crash"``
(an exception inside the worker; counts against ``--max-attempts``) and
``kind="died"`` (the worker process was lost mid-unit; counts against
the quarantine threshold).  A unit whose lease is reclaimed or whose
worker dies too many times is *quarantined* -- a distinct terminal state
reported honestly instead of being retried forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import cast

from repro.campaign.journal import JournalRecord
from repro.campaign.units import UnitResult, WorkUnit

#: ``reclaimed`` reasons that count toward the quarantine threshold
#: (``drain`` is operator-initiated, not the unit's fault).
RECLAIM_FAULT_REASONS = ("stuck", "expired")


class UnitStatus(Enum):
    """Where one unit is in its lifecycle."""

    QUEUED = "queued"
    LEASED = "leased"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"


@dataclass
class UnitState:
    """One unit's current queue entry."""

    key: str
    index: int
    status: UnitStatus = UnitStatus.QUEUED
    attempts: int = 0  # crash-kind failures (in-worker exceptions)
    deaths: int = 0  # died-kind failures (worker process lost)
    reclaims: int = 0  # stuck/expired lease reclamations
    fence: int = 0  # newest granted fence token
    revoked: set[int] = field(default_factory=set)
    lease_owner: str | None = None
    lease_expires_s: float = 0.0
    lease_granted_s: float = 0.0
    last_heartbeat_s: float = 0.0
    heartbeat_seq: int = -1
    extensions: int = 0
    result: UnitResult | None = None
    last_error: str | None = None
    quarantine_error: str | None = None

    def fence_valid(self, fence: int | None) -> bool:
        """Whether a record carrying *fence* may transition this unit."""
        if fence is None:
            return True  # pre-fencing journals carry no tokens
        return fence == self.fence and fence not in self.revoked

    @property
    def terminal(self) -> bool:
        """DONE and QUARANTINED accept no further transitions."""
        return self.status in (UnitStatus.DONE, UnitStatus.QUARANTINED)

    def runnable(self, now: float, owner: str, max_attempts: int) -> bool:
        """Whether *owner* may (re-)lease this unit at time *now*."""
        if self.status is UnitStatus.QUEUED:
            return True
        if self.status is UnitStatus.FAILED:
            return self.attempts < max_attempts
        if self.status is UnitStatus.LEASED:
            return self.lease_owner != owner or self.lease_expires_s <= now
        return False  # DONE and QUARANTINED are terminal


class CampaignQueueError(ValueError):
    """Raised when journal records do not fit the campaign's unit set."""


def _record_fence(record: JournalRecord) -> int | None:
    fence = record.get("fence")
    return None if fence is None else int(cast(int, fence))


@dataclass
class QueueState:
    """Every unit's state, derived from the journal."""

    units: dict[str, UnitState] = field(default_factory=dict)

    @staticmethod
    def for_units(units: tuple[WorkUnit, ...] | list[WorkUnit]) -> "QueueState":
        """A fresh queue with every unit QUEUED."""
        return QueueState(
            units={unit.key: UnitState(key=unit.key, index=unit.index) for unit in units}
        )

    @staticmethod
    def from_journal(records: list[JournalRecord]) -> "QueueState":
        """A queue rebuilt from a journal alone (its ``queued`` records
        define the unit set) -- the journal-only view ``status``,
        ``report`` and ``compact`` use; no spec expansion needed."""
        state = QueueState()
        for record in records:
            state.fold(record)
        return state

    def fold(self, record: JournalRecord) -> None:
        """Fold one record of a journal read from its start: a ``queued``
        record registers its unit, every other record is applied."""
        if record.get("event") == "queued":
            key = str(record.get("unit"))
            self.units.setdefault(
                key, UnitState(key=key, index=int(cast(int, record.get("index", 0))))
            )
        else:
            self.apply(record)

    def _entry(self, record: JournalRecord) -> UnitState:
        key = str(record.get("unit"))
        entry = self.units.get(key)
        if entry is None:
            raise CampaignQueueError(
                f"journal references unknown unit {key!r} "
                "(spec/seed mismatch with the journal header?)"
            )
        return entry

    def apply(self, record: JournalRecord) -> None:
        """Replay one journal record into the state (non-unit events no-op)."""
        event = record.get("event")
        if event == "queued":
            self._entry(record)  # validates the key; QUEUED is the initial state
        elif event == "leased":
            entry = self._entry(record)
            if entry.terminal:
                return
            fence = _record_fence(record)
            entry.status = UnitStatus.LEASED
            entry.lease_owner = str(record.get("worker"))
            entry.lease_expires_s = float(cast(float, record.get("expires", 0.0)))
            entry.lease_granted_s = float(cast(float, record.get("granted", 0.0)))
            # Granting fence N implicitly invalidates every older fence:
            # validity requires fence == entry.fence.
            entry.fence = max(entry.fence, entry.fence + 1 if fence is None else fence)
            entry.last_heartbeat_s = entry.lease_granted_s
            entry.heartbeat_seq = -1
            entry.extensions = 0
        elif event == "heartbeat":
            entry = self._entry(record)
            if entry.terminal or not entry.fence_valid(_record_fence(record)):
                return
            entry.last_heartbeat_s = max(
                entry.last_heartbeat_s, float(cast(float, record.get("t", 0.0)))
            )
            entry.heartbeat_seq = max(
                entry.heartbeat_seq, int(cast(int, record.get("seq", 0)))
            )
        elif event == "extended":
            entry = self._entry(record)
            if entry.terminal or not entry.fence_valid(_record_fence(record)):
                return
            entry.lease_expires_s = float(cast(float, record.get("expires", 0.0)))
            entry.extensions = max(
                entry.extensions, int(cast(int, record.get("extension", 0)))
            )
        elif event == "reclaimed":
            entry = self._entry(record)
            if entry.terminal:
                return
            fence = _record_fence(record)
            if fence is not None:
                entry.revoked.add(fence)
            if str(record.get("reason")) in RECLAIM_FAULT_REASONS:
                entry.reclaims += 1
            if entry.status is UnitStatus.LEASED and (
                fence is None or fence == entry.fence
            ):
                entry.status = UnitStatus.QUEUED
                entry.lease_owner = None
        elif event == "done":
            entry = self._entry(record)
            if entry.terminal:
                return  # first result wins; ignore duplicates
            if not entry.fence_valid(_record_fence(record)):
                return  # a reclaimed lease's late completion: fenced off
            payload = record.get("result")
            if not isinstance(payload, dict):
                raise CampaignQueueError(
                    f"done record for unit {entry.key!r} has no result payload"
                )
            try:
                result = UnitResult.from_dict(payload)
            except (KeyError, TypeError, ValueError) as exc:
                raise CampaignQueueError(
                    f"done record for unit {entry.key!r} has an unreadable "
                    f"result payload ({exc!r})"
                ) from exc
            entry.status = UnitStatus.DONE
            entry.result = result
        elif event == "failed":
            entry = self._entry(record)
            if entry.terminal:
                return
            if not entry.fence_valid(_record_fence(record)):
                return  # a reclaimed lease's late failure: fenced off
            entry.status = UnitStatus.FAILED
            entry.last_error = cast("str | None", record.get("error"))
            if str(record.get("kind", "crash")) == "died":
                entry.deaths = max(
                    entry.deaths + 1, int(cast(int, record.get("death", 0)))
                )
            else:
                entry.attempts = max(
                    entry.attempts + 1, int(cast(int, record.get("attempt", 0)))
                )
            entry.lease_owner = None
        elif event == "quarantined":
            entry = self._entry(record)
            if entry.status is UnitStatus.DONE:
                return  # a standing result beats a quarantine marker
            entry.status = UnitStatus.QUARANTINED
            entry.reclaims = max(entry.reclaims, int(cast(int, record.get("reclaims", 0))))
            entry.deaths = max(entry.deaths, int(cast(int, record.get("deaths", 0))))
            entry.quarantine_error = cast("str | None", record.get("error"))
            entry.lease_owner = None

    def replay(self, records: list[JournalRecord]) -> None:
        """Apply every record in journal order."""
        for record in records:
            self.apply(record)

    def next_fence(self, key: str) -> int:
        """The fence token the next lease of *key* must carry."""
        return self.units[key].fence + 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def runnable(self, now: float, owner: str, max_attempts: int) -> list[UnitState]:
        """Units *owner* should run next, in canonical index order."""
        ready = [
            entry
            for entry in self.units.values()
            if entry.runnable(now, owner, max_attempts)
        ]
        return sorted(ready, key=lambda entry: entry.index)

    def results(self) -> dict[str, UnitResult]:
        """Every completed unit's standing result, keyed by unit key."""
        return {
            key: entry.result
            for key, entry in self.units.items()
            if entry.status is UnitStatus.DONE and entry.result is not None
        }

    def counts(self) -> dict[str, int]:
        """Units per status (for ``campaign status`` and run summaries)."""
        out = {status.value: 0 for status in UnitStatus}
        for entry in self.units.values():
            out[entry.status.value] += 1
        return out

    @property
    def complete(self) -> bool:
        """Whether every unit has reached a terminal state."""
        return all(entry.terminal for entry in self.units.values())

    def exhausted(self, max_attempts: int) -> list[UnitState]:
        """FAILED units that are out of retry budget, in index order."""
        dead = [
            entry
            for entry in self.units.values()
            if entry.status is UnitStatus.FAILED and entry.attempts >= max_attempts
        ]
        return sorted(dead, key=lambda entry: entry.index)

    def leases(self) -> list[UnitState]:
        """Currently leased units, in index order (the ``status`` view)."""
        held = [
            entry
            for entry in self.units.values()
            if entry.status is UnitStatus.LEASED
        ]
        return sorted(held, key=lambda entry: entry.index)

    def quarantined(self) -> list[UnitState]:
        """Quarantined units, in index order."""
        poisoned = [
            entry
            for entry in self.units.values()
            if entry.status is UnitStatus.QUARANTINED
        ]
        return sorted(poisoned, key=lambda entry: entry.index)
