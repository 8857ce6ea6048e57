"""Resumable master/worker orchestration for the scenario matrix.

The sweep surface is a dense condition matrix -- parameter x faults x
heal x camera x workload, the way Revelio and DeepLight (PAPERS.md)
report results.  ``repro.campaign`` turns that matrix into one
resumable **campaign**:

* :mod:`~repro.campaign.spec` -- the declarative axis grammar
  (``parameter=tau:8,12,16|faults=none,drop:p=0.1|heal=on,off``) and its
  expansion into seed-stamped work units;
* :mod:`~repro.campaign.units` -- frozen :class:`WorkUnit` payloads and
  the executor that runs them through ``run_link`` /
  ``run_transport_link`` / ``run_fleet``;
* :mod:`~repro.campaign.journal` -- the append-only JSONL transition
  log that survives ``SIGKILL`` (torn final line tolerated);
* :mod:`~repro.campaign.queue` -- journal replay into lease-aware queue
  state (``--resume`` re-leases expired work, keeps recorded results);
* :mod:`~repro.campaign.master` -- the dispatch loop over
  :class:`~repro.runtime.engine.ExecutionEngine` workers;
* :mod:`~repro.campaign.supervise` -- lease heartbeats and the
  supervisor that extends slow leases and fences/reclaims stuck ones
  immediately (no wall-timeout wait);
* :mod:`~repro.campaign.chaos` -- seeded orchestration fault schedules
  (worker kill/stall, heartbeat drop/delay, journal append tears) and
  the harness asserting report byte-identity under them;
* :mod:`~repro.campaign.report` -- the exact-merge aggregated report,
  byte-identical at any worker count and across kill/resume histories.

The CLI lives in :mod:`repro.tools.campaign`
(``python -m repro.tools.campaign run/resume/status/report``), and
:mod:`repro.tools.sweep` is a thin single-axis front-end over the same
machinery.
"""

from repro.campaign.chaos import (
    ChaosSchedule,
    ChaosScheduleError,
    parse_chaos,
    run_chaos_campaign,
)
from repro.campaign.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    CampaignJournalError,
    JournalContents,
    compact_journal,
)
from repro.campaign.master import (
    CampaignMaster,
    CampaignOutcome,
    CampaignRunStats,
    journal_status,
    report_from_journal,
)
from repro.campaign.supervise import (
    LeaseHealth,
    SupervisePolicy,
    Supervisor,
    classify_lease,
)
from repro.campaign.queue import CampaignQueueError, QueueState, UnitState, UnitStatus
from repro.campaign.report import REPORT_FORMAT, CampaignReport, build_report
from repro.campaign.spec import (
    SWEEPABLE,
    Axis,
    CampaignSpec,
    CampaignSpecError,
    coerce_sweep_values,
)
from repro.campaign.units import UnitResult, WorkUnit, execute_unit

__all__ = [
    "ChaosSchedule",
    "ChaosScheduleError",
    "JOURNAL_FORMAT",
    "REPORT_FORMAT",
    "SWEEPABLE",
    "Axis",
    "CampaignJournal",
    "CampaignJournalError",
    "CampaignMaster",
    "CampaignOutcome",
    "CampaignQueueError",
    "CampaignReport",
    "CampaignRunStats",
    "CampaignSpec",
    "CampaignSpecError",
    "JournalContents",
    "LeaseHealth",
    "QueueState",
    "SupervisePolicy",
    "Supervisor",
    "UnitResult",
    "UnitState",
    "UnitStatus",
    "WorkUnit",
    "build_report",
    "classify_lease",
    "coerce_sweep_values",
    "compact_journal",
    "execute_unit",
    "journal_status",
    "parse_chaos",
    "report_from_journal",
    "run_chaos_campaign",
]
