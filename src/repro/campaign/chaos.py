"""Orchestration chaos: seeded fault schedules for the campaign layer.

:mod:`repro.faults` injects faults into the *channel*; this module
points the same discipline at the *orchestration* layer -- the master,
its worker pool, the journal appends -- and asserts the recovery story
the journal promises: the final :meth:`~repro.campaign.report.
CampaignReport.report_json` must be byte-identical to a chaos-free run
no matter which workers were killed, stalled, or torn mid-append.

Faults come from a deterministic **schedule grammar**: one event slot
per ``;``, pairs separated by ``,`` (the slot rules every spec grammar
shares are in docs/robustness.md §1)::

    kill:unit=3;stall:unit=5,dur=2;tear:record=done

The event kinds and their keys (:data:`CHAOS_KINDS`):

``kill:unit=N``
    SIGKILL the pool worker executing unit index *N* (its pid is learned
    from the unit's ``heartbeat`` records).  Exercises the
    ``failed kind="died"`` path and BrokenProcessPool recovery.
``stall:unit=N[,dur=S]``
    SIGSTOP that worker for *S* seconds (default 2.0), then SIGCONT.
    Manufactures a genuinely stuck-not-dead worker: heartbeats stop
    while the lease's wall clock keeps running, so supervision must
    reclaim via staleness strictly before the lease timeout.
``drop_hb:unit=N[,from=F][,count=C]``
    Silently drop the unit's heartbeats with ``seq >= F`` (default 0),
    at most *C* of them (default: all).  The worker stays healthy but
    looks stuck -- its late completion must be fenced off.
``delay_hb:unit=N,dur=S[,from=F][,count=C]``
    Delay matching heartbeats by *S* seconds before emitting.
``tear:record=E[,unit=N][,at=K]``
    Tear the *K*-th (default first) journal append of an ``E`` record
    (optionally only for unit index *N*) mid-line and kill the writing
    process -- the crash signature around journal appends.  Torn
    ``heartbeat`` appends happen in the worker; any other record tears
    in the master.

``kill`` and ``stall`` are injected *from outside* by the harness
(:func:`run_chaos_campaign`), which tails the journal for heartbeat
pids.  ``drop_hb``/``delay_hb``/``tear`` act *inside* the campaign
processes, carried by the :data:`CHAOS_ENV` environment variable and
consulted by :func:`heartbeat_filter_from_env` (in the worker's
:class:`~repro.campaign.supervise.HeartbeatEmitter`) and
:func:`tamper_from_env` (the journal's append hook).  Resumed runs are
launched without the variable, so a consumed tear is not re-torn.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, cast

from repro._util.spec import Caster, Params, SlotGrammar, integer, number, split_slots
from repro.campaign.journal import AppendTamper, CampaignJournal, JournalRecord
from repro.campaign.supervise import HeartbeatFilter, JournalTail

#: Environment variable carrying the in-process chaos schedule.
CHAOS_ENV = "REPRO_CAMPAIGN_CHAOS"

#: Exit code of a process that died at an injected tear point.
TEAR_EXIT_CODE = 42

#: Recognized event kinds, split by where they act.
EXTERNAL_KINDS = ("kill", "stall")
INTERNAL_KINDS = ("drop_hb", "delay_hb", "tear")

#: Campaign seed of both the clean and the chaos run.
_SEED = 1

#: Supervision of a chaos run: a fast heartbeat and a short stuck
#: threshold, so a stalled lease is reclaimed long before its lease
#: timeout, and a quarantine threshold no scheduled fault reaches.
_HEARTBEAT_S = 0.1
_STUCK_AFTER_S = 0.5
_LEASE_TIMEOUT_S = 120.0
_QUARANTINE_AFTER = 5

#: Resumes of a dead chaos master before the run gives up.
_MAX_RESUMES = 6

#: Wall-clock bound on the chaos run's campaign subprocesses.
_TIMEOUT_S = 180.0


class ChaosScheduleError(ValueError):
    """Raised for schedules that do not fit the grammar."""


#: Each event kind's keys and their defaults; ``...`` marks a key the
#: event must give.
CHAOS_KINDS: dict[str, dict[str, object]] = {
    "kill": {"unit": ...},
    "stall": {"unit": ..., "dur": 2.0},
    "drop_hb": {"unit": ..., "from": 0, "count": -1},
    "delay_hb": {"unit": ..., "dur": ..., "from": 0, "count": -1},
    "tear": {"record": ..., "unit": None, "at": 1},
}

#: The caster of every chaos key and the placeholder its errors name.
_KEYS: dict[str, tuple[Caster, str]] = {
    "unit": (integer, "N"),
    "dur": (number, "S"),
    "from": (integer, "F"),
    "count": (integer, "C"),
    "at": (integer, "K"),
    "record": (str, "EVENT"),
}

_SLOTS = SlotGrammar(
    "chaos event",
    ChaosScheduleError,
    {kind: {key: _KEYS[key][0] for key in keys} for kind, keys in CHAOS_KINDS.items()},
)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: a kind plus its typed ``key=value`` parameters."""

    kind: str
    params: Params = ()

    def __getitem__(self, key: str) -> Any:
        """The event's value for *key*, or its kind's default."""
        for name, value in self.params:
            if name == key:
                return value
        return CHAOS_KINDS[self.kind][key]

    def spec(self) -> str:
        """The event re-serialized in canonical grammar form."""
        return _SLOTS.format(self.kind, self.params)


@dataclass(frozen=True)
class ChaosSchedule:
    """A parsed fault schedule (see the module docstring for grammar)."""

    events: tuple[ChaosEvent, ...] = ()

    def spec(self) -> str:
        """The whole schedule in canonical grammar form."""
        return ";".join(event.spec() for event in self.events)

    def external(self) -> tuple[ChaosEvent, ...]:
        """Signal-injection events the harness performs from outside."""
        return tuple(e for e in self.events if e.kind in EXTERNAL_KINDS)

    def internal(self) -> tuple[ChaosEvent, ...]:
        """Events the campaign processes perform on themselves."""
        return tuple(e for e in self.events if e.kind in INTERNAL_KINDS)

    def env(self) -> dict[str, str]:
        """Environment overlay carrying the internal events (may be empty)."""
        internal = self.internal()
        if not internal:
            return {}
        return {CHAOS_ENV: ";".join(event.spec() for event in internal)}


def parse_chaos(text: str) -> ChaosSchedule:
    """Parse the schedule grammar; raises :class:`ChaosScheduleError`."""
    events: list[ChaosEvent] = []
    for slot in split_slots(text, ";"):
        event = ChaosEvent(*_SLOTS.read(slot))
        for key, default in CHAOS_KINDS[event.kind].items():
            if default is ... and event[key] is ...:
                raise ChaosScheduleError(
                    f"chaos event {slot!r} requires {key}={_KEYS[key][1]}"
                )
        events.append(event)
    return ChaosSchedule(events=tuple(events))


def _schedule_from_env(environ: dict[str, str] | None = None) -> ChaosSchedule | None:
    env = os.environ if environ is None else environ
    raw = env.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    return parse_chaos(raw)


# ----------------------------------------------------------------------
# In-process injectors (driven by CHAOS_ENV)
# ----------------------------------------------------------------------
def heartbeat_filter_from_env(
    environ: dict[str, str] | None = None,
) -> HeartbeatFilter | None:
    """A drop/delay filter for the worker's heartbeat emitter, or None.

    Consulted once per beat as ``(unit_index, seq) -> (emit, delay_s)``.
    Each worker process parses the schedule independently; events are
    keyed by unit index, so which worker executes the unit is irrelevant.
    """
    schedule = _schedule_from_env(environ)
    if schedule is None:
        return None
    events = [e for e in schedule.internal() if e.kind in ("drop_hb", "delay_hb")]
    if not events:
        return None
    remaining: dict[int, int] = {id(event): event["count"] for event in events}

    def chaos(unit_index: int, seq: int) -> tuple[bool, float]:
        emit, delay_s = True, 0.0
        for event in events:
            if event["unit"] != unit_index or seq < event["from"]:
                continue
            left = remaining[id(event)]
            if left == 0:
                continue  # count budget consumed
            if left > 0:
                remaining[id(event)] = left - 1
            if event.kind == "drop_hb":
                emit = False
            else:
                delay_s += event["dur"]
        return emit, delay_s

    return chaos


def _record_unit_index(record: JournalRecord) -> int | None:
    """Best-effort unit index of a journal record (for tear matching)."""
    index = record.get("index")
    if isinstance(index, int):
        return index
    result = record.get("result")
    if isinstance(result, dict) and isinstance(result.get("index"), int):
        return int(result["index"])
    return None


def tamper_from_env(
    path: str | Path,
    role: str,
    environ: dict[str, str] | None = None,
) -> AppendTamper | None:
    """A tear-injecting journal append hook for *role*, or None.

    *role* is ``"worker"`` (handles ``tear:record=heartbeat``) or
    ``"master"`` (handles every other record kind) -- tears fire in the
    process that actually writes the record.  On the scheduled append
    the hook writes the first half of the serialized line **without its
    newline** straight to the journal and kills the process with
    ``os._exit(``:data:`TEAR_EXIT_CODE```)``: exactly the torn-line
    crash signature the journal reader must tolerate.
    """
    schedule = _schedule_from_env(environ)
    if schedule is None:
        return None
    tears = []
    for event in schedule.internal():
        if event.kind != "tear":
            continue
        if (event["record"] == "heartbeat") == (role == "worker"):
            tears.append(event)
    if not tears:
        return None
    journal_path = Path(path)
    countdown: dict[int, int] = {id(event): event["at"] or 1 for event in tears}

    def tamper(record: JournalRecord, line: str) -> str | None:
        for event in tears:
            if record.get("event") != event["record"]:
                continue
            unit = event["unit"]
            if unit is not None and _record_unit_index(record) != unit:
                continue
            countdown[id(event)] -= 1
            if countdown[id(event)] > 0:
                continue
            torn = line[: max(1, (len(line) - 1) // 2)]
            with open(journal_path, "a", encoding="utf-8") as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            os._exit(TEAR_EXIT_CODE)
        return None

    return tamper


# ----------------------------------------------------------------------
# The harness: a real campaign subprocess under external injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StuckReclaim:
    """One supervision reclaim, with the wall-clock margin it won by."""

    unit: str
    fence: int
    reclaimed_at: float
    lease_expires_at: float

    @property
    def beat_wall_clock(self) -> bool:
        """Whether staleness detection fired before the lease timeout."""
        return self.reclaimed_at < self.lease_expires_at


@dataclass(frozen=True)
class ChaosRunResult:
    """Everything :func:`run_chaos_campaign` measured."""

    identical: bool
    report_json: str
    clean_report_json: str
    injected: tuple[str, ...]
    resumes: int
    exit_codes: tuple[int, ...]
    stuck_reclaims: tuple[StuckReclaim, ...]
    deaths: int
    quarantined: int

    def summary(self) -> str:
        lines = [
            f"chaos: injected={len(self.injected)} resumes={self.resumes} "
            f"deaths={self.deaths} quarantined={self.quarantined}",
            f"  report byte-identical to clean run: {self.identical}",
        ]
        for item in self.injected:
            lines.append(f"  injected {item}")
        for reclaim in self.stuck_reclaims:
            margin = reclaim.lease_expires_at - reclaim.reclaimed_at
            lines.append(
                f"  reclaimed {reclaim.unit} (fence {reclaim.fence}) "
                f"{margin:.1f}s before its lease timeout"
            )
        return "\n".join(lines)


def _campaign_command(
    spec: str, journal: Path, *, resume: bool, scale: str, workers: int
) -> list[str]:
    cmd = [sys.executable, "-m", "repro.tools.campaign"]
    if resume:
        cmd += ["resume"]
    else:
        cmd += ["run", "--spec", spec, "--scale", scale, "--seed", str(_SEED)]
    cmd += [
        "--journal", str(journal),
        "--workers", str(workers),
        "--heartbeat-s", str(_HEARTBEAT_S),
        "--stuck-after", str(_STUCK_AFTER_S),
        "--quarantine-after", str(_QUARANTINE_AFTER),
    ]
    if not resume:
        cmd += ["--lease-timeout", str(_LEASE_TIMEOUT_S)]
    return cmd


class _SignalInjector:
    """Performs the schedule's kill/stall events against live workers.

    Worker pids are learned from ``heartbeat`` records (each carries the
    emitting ``pid`` and unit ``index``) tailed out of the journal while
    the campaign runs.  Every event fires at most once, on the first
    heartbeat of its target unit.
    """

    def __init__(self, schedule: ChaosSchedule, journal: Path) -> None:
        self.pending = list(schedule.external())
        self.tail = JournalTail(journal)
        self.injected: list[str] = []
        self._conts: list[tuple[float, int]] = []  # (due time, pid)

    @property
    def done(self) -> bool:
        return not self.pending and not self._conts

    def poll(self) -> None:
        """Inject every due event; call regularly while the master runs."""
        for record in self.tail.poll():
            if record.get("event") != "heartbeat":
                continue
            index = record.get("index")
            pid = record.get("pid")
            if not isinstance(index, int) or not isinstance(pid, int):
                continue
            for event in list(self.pending):
                if event["unit"] != index:
                    continue
                self.pending.remove(event)
                try:
                    if event.kind == "kill":
                        os.kill(pid, signal.SIGKILL)
                        self.injected.append(f"kill unit={index} pid={pid}")
                    else:  # stall
                        duration = event["dur"]
                        os.kill(pid, signal.SIGSTOP)
                        self._conts.append((time.monotonic() + duration, pid))
                        self.injected.append(
                            f"stall unit={index} pid={pid} dur={duration}"
                        )
                except OSError:
                    self.injected.append(f"{event.kind} unit={index} pid={pid} (gone)")
        now = time.monotonic()
        for due, pid in list(self._conts):
            if now >= due:
                self._conts.remove((due, pid))
                try:
                    os.kill(pid, signal.SIGCONT)
                except OSError:
                    pass

    def release_all(self) -> None:
        """SIGCONT anything still stopped (cleanup; never leave zombies)."""
        for _, pid in self._conts:
            try:
                os.kill(pid, signal.SIGCONT)
            except OSError:
                pass
        self._conts.clear()


def _stuck_reclaims(records: list[JournalRecord]) -> tuple[StuckReclaim, ...]:
    """Pair each ``stuck`` reclaim with the lease grant it revoked."""
    expires: dict[tuple[str, int], float] = {}
    found: list[StuckReclaim] = []
    for record in records:
        event = record.get("event")
        unit = str(record.get("unit"))
        fence = record.get("fence")
        if event == "leased" and isinstance(fence, int):
            expires[(unit, fence)] = float(cast(float, record.get("expires", 0.0)))
        elif event == "extended" and isinstance(fence, int):
            expires[(unit, fence)] = float(cast(float, record.get("expires", 0.0)))
        elif event == "reclaimed" and record.get("reason") == "stuck":
            if isinstance(fence, int) and (unit, fence) in expires:
                found.append(
                    StuckReclaim(
                        unit=unit,
                        fence=fence,
                        reclaimed_at=float(cast(float, record.get("t", 0.0))),
                        lease_expires_at=expires[(unit, fence)],
                    )
                )
    return tuple(found)


def run_chaos_campaign(
    spec: str,
    schedule: ChaosSchedule | str,
    workdir: str | Path,
    *,
    scale: str = "quick",
    workers: int = 2,
) -> ChaosRunResult:
    """Run one campaign clean and once under *schedule*; compare reports.

    Both runs use the same campaign seed.  The chaos run is a real
    ``repro.tools.campaign`` subprocess (so its pool workers are real
    processes signals can hit); the clean run is executed in-process
    first to produce the reference bytes.  If the chaos master dies
    (tear points exit with :data:`TEAR_EXIT_CODE`, kills may take the
    master down), it is resumed -- without the chaos environment -- at
    most ``_MAX_RESUMES`` times, all within ``_TIMEOUT_S`` of wall clock.
    """
    from repro.campaign.master import CampaignMaster, report_from_journal

    if isinstance(schedule, str):
        schedule = parse_chaos(schedule)
    workdir = Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)

    clean_journal = CampaignJournal(workdir / "clean.jsonl")
    clean = CampaignMaster(
        spec,
        journal=clean_journal,
        scale=scale,
        seed=_SEED,
        workers=workers,
        lease_timeout_s=_LEASE_TIMEOUT_S,
    ).run()
    clean_json = clean.report.report_json()

    journal = workdir / "chaos.jsonl"
    env = dict(os.environ)
    env.update(schedule.env())
    src = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    injector = _SignalInjector(schedule, journal)
    exit_codes: list[int] = []
    deadline = time.monotonic() + _TIMEOUT_S

    def drive(cmd: list[str], run_env: dict[str, str]) -> int:
        proc = subprocess.Popen(
            cmd, env=run_env, cwd=workdir,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            while proc.poll() is None:
                injector.poll()
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"chaos campaign exceeded {_TIMEOUT_S}s (schedule "
                        f"{schedule.spec()!r})"
                    )
                time.sleep(0.02)
        finally:
            injector.release_all()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return int(proc.returncode or 0)

    code = drive(
        _campaign_command(spec, journal, resume=False, scale=scale, workers=workers),
        env,
    )
    exit_codes.append(code)
    resumes = 0
    resume_env = {k: v for k, v in env.items() if k != CHAOS_ENV}
    while code != 0 and resumes < _MAX_RESUMES:
        resumes += 1
        code = drive(
            _campaign_command(spec, journal, resume=True, scale=scale, workers=workers),
            resume_env,
        )
        exit_codes.append(code)

    contents = CampaignJournal(journal).read()
    report = report_from_journal(CampaignJournal(journal))
    deaths = sum(
        1
        for r in contents.records
        if r.get("event") == "failed" and r.get("kind") == "died"
    )
    quarantined = sum(
        1 for r in contents.records if r.get("event") == "quarantined"
    )
    report_json = report.report_json()
    return ChaosRunResult(
        identical=report_json == clean_json,
        report_json=report_json,
        clean_report_json=clean_json,
        injected=tuple(injector.injected),
        resumes=resumes,
        exit_codes=tuple(exit_codes),
        stuck_reclaims=_stuck_reclaims(contents.records),
        deaths=deaths,
        quarantined=quarantined,
    )
