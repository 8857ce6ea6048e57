"""The campaign master: lease, dispatch, supervise, record, resume.

:class:`CampaignMaster` drives one campaign to completion.  A fresh run
journals the header and every ``queued`` unit before dispatching; a
resumed run (:meth:`CampaignMaster.resume` + ``run(resume=True)``)
replays the journal instead, validates the expansion fingerprint, keeps
every durably recorded result, and re-leases only what is still
outstanding -- expired leases, leases owned by dead incarnations, and
retryable failures with attempt budget left.

Workers are the existing :class:`~repro.runtime.engine.ExecutionEngine`
pool: units cross the process boundary as frozen
:class:`~repro.campaign.units.WorkUnit` payloads (wrapped in a
:class:`LeasedUnit` envelope when journaled, so the worker can heartbeat)
and come back as :class:`~repro.campaign.units.UnitResult` rows.  The
dispatch wrapper (:func:`_execute_unit_task`) converts unexpected worker
exceptions into retryable failures so one bad unit cannot take down the
campaign, while deterministic failures (invalid cells) complete normally
with ``ok=False``.

**Supervision.**  While a batch executes, the engine's ``tick`` hook
gives control back to the master every ``policy.tick_s``: it tails the
journal for worker heartbeats, applies them to its queue, asks a
:class:`~repro.campaign.supervise.Supervisor` (which reads the queue's
leases), and honors its decisions
-- *slow* leases are extended with bounded backoff, *stuck* leases
(heartbeat-stale) are fenced, journaled as ``reclaimed``, and their
engine futures abandoned immediately, no wall-timeout wait.  A worker
process lost to a pool crash is journaled as ``failed kind="died"``
(the engine's per-item crash budget hands it straight back instead of
retrying blind).  A unit reclaimed or orphaned too many times is
**quarantined**: a distinct terminal state reported honestly.

**Drain.**  SIGTERM closes the engine's dispatch gate -- no new leases
-- and lets in-flight units finish until the drain deadline, after which
they are reclaimed with reason ``drain`` (never counted toward
quarantine).  A clean ``drained`` marker ends the journal so resume
needs no replay guesswork.

Journal *state transitions* happen in the master only -- ``leased`` from
the engine's ``prepare`` hook, ``done``/``failed`` from ``on_result``,
``extended``/``reclaimed``/``quarantined`` from the tick -- workers
append only advisory ``heartbeat`` records, so every transition still
has exactly one writer.  The master records each transition through
:meth:`CampaignMaster._record`, which appends it and then applies the
same record to the queue: the live queue is the replay of the journal.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import cast

from repro.campaign.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    CampaignJournalError,
    JournalRecord,
)
from repro.campaign.queue import (
    RECLAIM_FAULT_REASONS,
    QueueState,
    UnitStatus,
)
from repro.campaign.report import CampaignReport, build_report
from repro.campaign.spec import CampaignSpec
from repro.campaign.supervise import (
    Extend,
    JournalTail,
    SupervisePolicy,
    Supervisor,
)
from repro.campaign.units import UnitResult, WorkUnit, execute_unit
from repro.obs.live import live_collector, record_live
from repro.runtime.engine import ExecutionEngine

#: Error text journaled when a pool worker is lost mid-unit.
WORKER_DIED_ERROR = "worker process died mid-unit"


@dataclass
class CampaignRunStats:
    """What one :meth:`CampaignMaster.run` call did."""

    units_total: int = 0
    executed: int = 0  # units dispatched by this run
    reused: int = 0  # results recovered from the journal
    retries: int = 0  # failed records written by this run
    exhausted: int = 0  # units that ran out of attempt budget
    torn_tail: bool = False  # the journal ended in a crash-torn line
    mode: str = "serial"  # last engine pass mode
    workers: int = 1
    reclaims: int = 0  # stuck/expired leases reclaimed by this run
    extensions: int = 0  # slow leases extended by this run
    deaths: int = 0  # worker processes lost mid-unit
    quarantined: int = 0  # units quarantined by this run
    drained: bool = False  # this run stopped on a SIGTERM drain


@dataclass(frozen=True)
class CampaignOutcome:
    """A finished :meth:`CampaignMaster.run`: report, results, accounting."""

    report: CampaignReport
    results: dict[str, UnitResult] = field(default_factory=dict)
    stats: CampaignRunStats = field(default_factory=CampaignRunStats)


@dataclass(frozen=True)
class LeasedUnit:
    """A dispatched unit plus everything its worker needs to heartbeat."""

    unit: WorkUnit
    journal_path: str
    fence: int
    worker: str
    heartbeat_s: float


def _execute_unit_task(
    payload: "WorkUnit | LeasedUnit", context: object
) -> UnitResult:
    """The engine work function: run one unit, never let it raise.

    :func:`~repro.campaign.units.execute_unit` already absorbs
    deterministic failures; anything else escaping here is an unexpected
    crash and comes back as a retryable failure record instead of
    poisoning the pool pass.  For :class:`LeasedUnit` payloads a
    :class:`~repro.campaign.supervise.HeartbeatEmitter` appends advisory
    liveness records to the journal for the unit's duration.
    """
    # checks: worker-scope
    emitter = None
    if isinstance(payload, LeasedUnit):
        unit = payload.unit
        if payload.heartbeat_s > 0:
            from repro.campaign.chaos import (
                heartbeat_filter_from_env,
                tamper_from_env,
            )
            from repro.campaign.supervise import HeartbeatEmitter

            emitter = HeartbeatEmitter(
                payload.journal_path,
                key=unit.key,
                index=unit.index,
                fence=payload.fence,
                worker=payload.worker,
                interval_s=payload.heartbeat_s,
                chaos=heartbeat_filter_from_env(),
            )
            emitter.journal.tamper = tamper_from_env(
                payload.journal_path, role="worker"
            )
            emitter.start()
    else:
        unit = payload
    try:
        return execute_unit(unit)
    except Exception as exc:  # the process boundary must not leak raises
        return UnitResult(
            index=unit.index,
            key=unit.key,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            retryable=True,
        )
    finally:
        if emitter is not None:
            emitter.stop()


class CampaignMaster:
    """Runs one campaign, optionally journaled, supervised, resumable.

    Parameters
    ----------
    spec:
        The campaign, as a grammar string or a parsed
        :class:`~repro.campaign.spec.CampaignSpec`.
    journal:
        Where to journal transitions; ``None`` runs in-memory only
        (no resume, no heartbeats -- e.g. the sweep front-end).
    scale, seed, payload_bytes, fault_seed:
        Expansion options (see :meth:`CampaignSpec.expand`).
    workers:
        Engine worker processes (``None`` = auto, ``1`` = serial).
    lease_timeout_s:
        How long a lease stays valid; an expired lease is re-runnable.
    max_attempts:
        Total tries a retryably-failing unit gets before it is reported
        as ``failed``.
    supervise:
        The :class:`~repro.campaign.supervise.SupervisePolicy`
        (heartbeat interval, staleness threshold, quarantine threshold);
        defaults to :meth:`SupervisePolicy.resolve` against the lease
        timeout.
    drain_timeout_s:
        After SIGTERM, how long in-flight units get to finish before
        being reclaimed with reason ``drain``.
    """

    def __init__(
        self,
        spec: CampaignSpec | str,
        *,
        journal: CampaignJournal | None = None,
        scale: str = "benchmark",
        seed: int = 1,
        payload_bytes: int = 64,
        fault_seed: int | None = None,
        workers: int | None = None,
        lease_timeout_s: float = 600.0,
        max_attempts: int = 3,
        supervise: SupervisePolicy | None = None,
        drain_timeout_s: float = 30.0,
    ) -> None:
        self.spec = CampaignSpec.parse(spec) if isinstance(spec, str) else spec
        self.journal = journal
        self.scale = scale
        self.seed = int(seed)
        self.payload_bytes = int(payload_bytes)
        self.fault_seed = fault_seed
        self.workers = workers
        if lease_timeout_s <= 0.0:
            raise ValueError(f"lease_timeout_s must be > 0, got {lease_timeout_s}")
        self.lease_timeout_s = float(lease_timeout_s)
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self.supervise = (
            supervise
            if supervise is not None
            else SupervisePolicy.resolve(lease_timeout_s=self.lease_timeout_s)
        )
        if drain_timeout_s <= 0.0:
            raise ValueError(f"drain_timeout_s must be > 0, got {drain_timeout_s}")
        self.drain_timeout_s = float(drain_timeout_s)
        self.units = self.spec.expand(
            scale=scale, seed=self.seed, payload_bytes=self.payload_bytes,
            fault_seed=fault_seed,
        )
        self.incarnation = f"{os.getpid():x}.{time.time_ns():x}"
        self._draining = False
        self._drain_deadline: float | None = None

    # ------------------------------------------------------------------
    # Construction from a journal (the `resume` CLI path)
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        journal: CampaignJournal,
        *,
        workers: int | None = None,
        supervise: SupervisePolicy | None = None,
        drain_timeout_s: float = 30.0,
    ) -> "CampaignMaster":
        """A master reconstructed from a journal's header record."""
        header = journal.read().header
        if header is None:
            raise CampaignJournalError(f"journal {journal.path} has no header")
        fault_seed = cast("int | None", header.get("fault_seed"))
        return cls(
            str(header["spec"]),
            journal=journal,
            scale=str(header["scale"]),
            seed=int(cast(int, header["seed"])),
            payload_bytes=int(cast(int, header["payload_bytes"])),
            fault_seed=None if fault_seed is None else int(fault_seed),
            workers=workers,
            lease_timeout_s=float(cast(float, header["lease_timeout_s"])),
            max_attempts=int(cast(int, header["max_attempts"])),
            supervise=supervise,
            drain_timeout_s=drain_timeout_s,
        )

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _header_record(self) -> JournalRecord:
        return {
            "event": "campaign",
            "format": JOURNAL_FORMAT,
            "spec": self.spec.spec(),
            "scale": self.scale,
            "seed": self.seed,
            "payload_bytes": self.payload_bytes,
            "fault_seed": self.fault_seed,
            "lease_timeout_s": self.lease_timeout_s,
            "max_attempts": self.max_attempts,
            "units": len(self.units),
            "fingerprint": self.fingerprint,
        }

    @property
    def fingerprint(self) -> int:
        """The expansion digest journals carry and resume validates."""
        return self.spec.fingerprint(
            scale=self.scale,
            seed=self.seed,
            payload_bytes=self.payload_bytes,
            fault_seed=self.fault_seed,
        )

    def _record(self, queue: QueueState, record: JournalRecord) -> None:
        """Journal *record* (when journaled), then apply it to *queue*."""
        if self.journal is not None:
            self.journal.append(record)
        queue.apply(record)
        if live_collector() is not None:
            # Exec-scoped, advisory: the unit counts watch draws.
            counts = queue.counts()
            for name in sorted(counts):
                record_live(f"campaign.units.{name}", counts[name])

    def _start_fresh(self) -> QueueState:
        if self.journal is not None and self.journal.exists:
            raise CampaignJournalError(
                f"journal {self.journal.path} already exists; "
                "use resume to continue it"
            )
        queue = QueueState.for_units(self.units)
        self._record(queue, self._header_record())
        for unit in self.units:
            self._record(
                queue, {"event": "queued", "unit": unit.key, "index": unit.index}
            )
        self._record(queue, {"event": "master", "incarnation": self.incarnation})
        return queue

    def _start_resumed(self, stats: CampaignRunStats) -> QueueState:
        if self.journal is None:
            raise CampaignJournalError("resume requires a journal")
        contents = self.journal.read()
        header = contents.header
        if header is None:
            raise CampaignJournalError(f"journal {self.journal.path} has no header")
        recorded = int(cast(int, header.get("fingerprint", 0)))
        if recorded != self.fingerprint:
            raise CampaignJournalError(
                f"journal {self.journal.path} was recorded for a different "
                f"campaign expansion (fingerprint {recorded} != {self.fingerprint}); "
                "refusing to mix results"
            )
        stats.torn_tail = contents.torn_tail
        queue = QueueState.for_units(self.units)
        queue.replay(contents.records)
        stats.reused = sum(
            1
            for entry in queue.units.values()
            if entry.status is UnitStatus.DONE
        )
        self._record(queue, {"event": "master", "incarnation": self.incarnation})
        return queue

    # ------------------------------------------------------------------
    # Supervision bookkeeping (journal + queue + stats in one step)
    # ------------------------------------------------------------------
    def _reclaim(
        self,
        queue: QueueState,
        stats: CampaignRunStats,
        key: str,
        fence: int,
        reason: str,
        now: float,
    ) -> None:
        """Fence a lease off, journal the reclaim, maybe quarantine."""
        self._record(
            queue,
            {"event": "reclaimed", "unit": key, "fence": fence,
             "reason": reason, "t": now},
        )
        if reason in RECLAIM_FAULT_REASONS:
            stats.reclaims += 1
        self._maybe_quarantine(queue, stats, key)

    def _maybe_quarantine(
        self, queue: QueueState, stats: CampaignRunStats, key: str
    ) -> None:
        """Quarantine *key* if its reclaim or death budget is spent."""
        entry = queue.units[key]
        if entry.terminal:
            return
        threshold = self.supervise.quarantine_after
        if entry.reclaims < threshold and entry.deaths < threshold:
            return
        # Synthesized purely from journaled counters, so replaying the
        # journal reproduces the identical report row.
        error = (
            f"quarantined after {entry.reclaims} lease reclamations "
            f"and {entry.deaths} worker deaths"
        )
        self._record(
            queue,
            {"event": "quarantined", "unit": key, "reclaims": entry.reclaims,
             "deaths": entry.deaths, "error": error},
        )
        stats.quarantined += 1

    def _handle_sigterm(self, signum: int, frame: object) -> None:
        self._draining = True

    def _install_sigterm(self) -> object | None:
        """Install the drain handler; returns the previous one, if any."""
        if threading.current_thread() is not threading.main_thread():
            return None
        try:
            return signal.signal(signal.SIGTERM, self._handle_sigterm)
        except (ValueError, OSError):  # exotic embedding; drain unavailable
            return None

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignOutcome:
        """Drive the campaign until every unit is terminal or out of budget."""
        stats = CampaignRunStats(
            units_total=len(self.units),
            workers=ExecutionEngine(workers=self.workers).workers,
        )
        queue = self._start_resumed(stats) if resume else self._start_fresh()
        by_key = {unit.key: unit for unit in self.units}
        engine = ExecutionEngine(workers=self.workers)
        policy = self.supervise
        supervisor = Supervisor(policy, queue, self.incarnation)
        supervised = self.journal is not None
        if supervised:
            # Leases are granted at dispatch but execution starts when a
            # pool worker picks the unit up; cap the dispatch window at
            # the worker count so a leased unit is (nearly) always
            # executing -- silent-but-queued leases would otherwise burn
            # their first-beat grace waiting in line.
            engine.max_inflight = min(engine.max_inflight, engine.workers)
        tail = JournalTail(self.journal.path) if self.journal is not None else None
        self._draining = False
        self._drain_deadline = None
        previous_handler = self._install_sigterm()
        try:
            self._run_loop(
                stats, queue, by_key, engine, policy, supervisor, supervised, tail
            )
        finally:
            if previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)  # type: ignore[arg-type]
        if self._draining:
            # Belt and braces: nothing of ours should still be leased
            # (in-flight work either finished or was drain-reclaimed in
            # the tick), but the drained marker promises it.
            for entry in supervisor.held():
                self._reclaim(
                    queue, stats, entry.key, entry.fence, "drain", time.time()
                )
            outstanding = sum(1 for e in queue.units.values() if not e.terminal)
            self._record(
                queue,
                {"event": "drained", "incarnation": self.incarnation,
                 "outstanding": outstanding, "t": time.time()},
            )
            stats.drained = True

        results = queue.results()
        # Units that exhausted their retry budget still belong in the
        # report -- as `failed` rows, not silent holes.
        for entry in queue.exhausted(self.max_attempts):
            stats.exhausted += 1
            results[entry.key] = UnitResult(
                index=entry.index,
                key=entry.key,
                ok=False,
                error=f"unit failed {entry.attempts} attempts",
                retryable=True,
            )
        quarantined = {
            entry.key: entry.quarantine_error or "quarantined"
            for entry in queue.quarantined()
        }
        report = build_report(
            self.spec.spec(), self.scale, self.seed, self.units, results,
            quarantined=quarantined,
        )
        return CampaignOutcome(report=report, results=results, stats=stats)

    def _run_loop(
        self,
        stats: CampaignRunStats,
        queue: QueueState,
        by_key: dict[str, WorkUnit],
        engine: ExecutionEngine,
        policy: SupervisePolicy,
        supervisor: Supervisor,
        supervised: bool,
        tail: JournalTail | None,
    ) -> None:
        while not self._draining:
            now = time.time()
            ready = queue.runnable(now, self.incarnation, self.max_attempts)
            if not ready:
                break
            batch: list[WorkUnit] = []
            for entry in ready:
                if entry.status is UnitStatus.LEASED:
                    # A lease we can take over: wall-clock expired, or
                    # held by a dead incarnation (journals are
                    # single-master).  Fence it off first so its late
                    # records are rejected on replay.
                    reason = (
                        "expired"
                        if entry.lease_owner == self.incarnation
                        else "takeover"
                    )
                    self._reclaim(queue, stats, entry.key, entry.fence, reason, now)
                    if queue.units[entry.key].terminal:
                        continue  # the reclaim tipped it into quarantine
                batch.append(by_key[entry.key])
            if not batch:
                continue  # quarantines shrank the batch; re-plan
            index_of = {unit.key: i for i, unit in enumerate(batch)}

            def prepare(
                _index: int, payload: "WorkUnit | LeasedUnit"
            ) -> "WorkUnit | LeasedUnit":
                # Engine-internal retries re-prepare the wrapped item.
                unit = payload.unit if isinstance(payload, LeasedUnit) else payload
                fence = queue.next_fence(unit.key)
                granted = time.time()
                self._record(
                    queue,
                    {"event": "leased", "unit": unit.key, "index": unit.index,
                     "worker": self.incarnation, "fence": fence,
                     "granted": granted, "expires": granted + self.lease_timeout_s},
                )
                if self.journal is None:
                    return unit
                return LeasedUnit(
                    unit=unit,
                    journal_path=str(self.journal.path),
                    fence=fence,
                    worker=self.incarnation,
                    heartbeat_s=policy.heartbeat_s,
                )

            def on_result(_index: int, result: UnitResult) -> None:
                entry = queue.units[result.key]
                if result.ok or not result.retryable:
                    # First valid fence wins: a terminal unit or a
                    # reclaimed lease's late completion is not recorded.
                    if not entry.terminal and entry.fence_valid(entry.fence):
                        self._record(
                            queue,
                            {"event": "done", "unit": entry.key,
                             "fence": entry.fence, "result": result.as_dict()},
                        )
                else:
                    stats.retries += 1
                    self._record(
                        queue,
                        {"event": "failed", "unit": entry.key, "fence": entry.fence,
                         "kind": "crash", "error": result.error,
                         "attempt": entry.attempts + 1},
                    )

            def on_abandon(index: int, reason: str) -> None:
                if reason != "crash":
                    return  # tick reclaims journal their own records
                entry = queue.units[batch[index].key]
                if entry.terminal:
                    return
                stats.deaths += 1
                self._record(
                    queue,
                    {"event": "failed", "unit": entry.key, "fence": entry.fence,
                     "kind": "died", "error": WORKER_DIED_ERROR,
                     "death": entry.deaths + 1},
                )
                self._maybe_quarantine(queue, stats, entry.key)

            def tick(inflight: "tuple[int, ...] | list[int]") -> set[int]:
                if tail is not None:
                    for record in tail.poll():
                        # Every other kind was applied when the master
                        # appended it; a second `leased` would reset the
                        # lease's heartbeat.
                        if record.get("event") == "heartbeat":
                            queue.apply(record)
                now = time.time()
                if live_collector() is not None:
                    # Exec-scoped, advisory: lease health for the
                    # snapshot stream watch tails.
                    health = supervisor.health_counts(now)
                    for name in sorted(health):
                        record_live(f"campaign.leases.{name}", health[name])
                abandon: set[int] = set()
                if self._draining:
                    if self._drain_deadline is None:
                        self._drain_deadline = now + self.drain_timeout_s
                    if now >= self._drain_deadline:
                        for entry in supervisor.held():
                            self._reclaim(
                                queue, stats, entry.key, entry.fence, "drain", now
                            )
                            i = index_of.get(entry.key)
                            if i is not None:
                                abandon.add(i)
                    return abandon
                for decision in supervisor.decide(now):
                    if isinstance(decision, Extend):
                        self._record(
                            queue,
                            {"event": "extended", "unit": decision.key,
                             "fence": decision.fence,
                             "expires": decision.expires_s,
                             "extension": decision.extension},
                        )
                        stats.extensions += 1
                    else:
                        self._reclaim(
                            queue, stats, decision.key, decision.fence,
                            decision.reason, now,
                        )
                        i = index_of.get(decision.key)
                        if i is not None:
                            abandon.add(i)
                return abandon

            engine.map(
                _execute_unit_task,
                batch,
                prepare=prepare,
                on_result=on_result,
                tick=tick if supervised else None,
                tick_interval_s=policy.tick_s,
                dispatch_gate=lambda: not self._draining,
                on_abandon=on_abandon,
                abandon_after_crashes=1,
            )
            stats.executed += len(batch)
            stats.mode = engine.stats.mode


# ----------------------------------------------------------------------
# Journal-only views (the `status` / `report` CLI paths; no execution)
# ----------------------------------------------------------------------
def journal_status(journal: CampaignJournal) -> dict[str, object]:
    """Replay a journal into a status snapshot without running anything."""
    contents = journal.read()
    header = contents.header
    if header is None:
        raise CampaignJournalError(f"journal {journal.path} has no header")
    master = CampaignMaster.resume(journal)
    queue = QueueState.for_units(master.units)
    queue.replay(contents.records)
    now = time.time()
    leases = [
        {
            "unit": entry.key,
            "index": entry.index,
            "owner": entry.lease_owner,
            "fence": entry.fence,
            "lease_age_s": round(max(0.0, now - entry.lease_granted_s), 3),
            # A lease that never managed a beat shows its age as the
            # staleness -- the same anchor the supervisor judges by.
            "heartbeat_age_s": (
                round(max(0.0, now - entry.last_heartbeat_s), 3)
                if entry.heartbeat_seq >= 0
                else None
            ),
            "heartbeat_seq": entry.heartbeat_seq,
            "expires_in_s": round(entry.lease_expires_s - now, 3),
        }
        for entry in queue.leases()
    ]
    quarantined = [
        {
            "unit": entry.key,
            "index": entry.index,
            "reclaims": entry.reclaims,
            "deaths": entry.deaths,
            "error": entry.quarantine_error,
        }
        for entry in queue.quarantined()
    ]
    drained = any(r.get("event") == "drained" for r in contents.records)
    return {
        "spec": header["spec"],
        "scale": header["scale"],
        "seed": header["seed"],
        "units": len(master.units),
        "counts": queue.counts(),
        "torn_tail": contents.torn_tail,
        "complete": queue.complete,
        "leases": leases,
        "quarantined": quarantined,
        "drained": drained,
        "warnings": list(contents.warnings),
    }


def report_from_journal(journal: CampaignJournal) -> CampaignReport:
    """The aggregated report of whatever a journal has durably recorded.

    Purely a fold over terminal records -- no units execute, so this
    works on journals of crashed, partial, or finished campaigns alike.
    """
    contents = journal.read()
    master = CampaignMaster.resume(journal)
    queue = QueueState.for_units(master.units)
    queue.replay(contents.records)
    quarantined = {
        entry.key: entry.quarantine_error or "quarantined"
        for entry in queue.quarantined()
    }
    return build_report(
        master.spec.spec(), master.scale, master.seed, master.units,
        queue.results(), quarantined=quarantined,
    )
