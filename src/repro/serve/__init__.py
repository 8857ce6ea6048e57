"""Sessionful broadcast serving: render the carousel once, serve a fleet.

The paper's deployment story is one display and many watchers: digital
signage airs a data carousel all day and any camera that wanders by
collects the payload.  ``repro.serve`` is that asymmetry made explicit.
A :class:`BroadcastSession` renders the emitted frame stack *once* per
carousel cycle (memoized by ``index mod period``, since the carousel
re-airs bit-identical complementary pairs every cycle) and
:func:`run_fleet` fans it out to hundreds of simulated receivers with
heterogeneous capture rates, exposures, clocks, viewing distances, join
times and fault plans -- described compactly by the cohort grammar of
:mod:`repro.serve.cohort`.

Per-cohort delivery, goodput and time-to-join analytics flow through
:mod:`repro.obs` exact merges, so a fleet report is byte-identical at
any worker count.  See ``docs/broadcast.md``.
"""

from repro.serve.cohort import (
    COHORT_KEYS,
    CohortSpec,
    CohortSpecError,
    ReceiverSpec,
    compile_receivers,
    parse_cohorts,
)
from repro.serve.fanout import FleetRun, run_fleet
from repro.serve.report import (
    CohortReport,
    FleetReport,
    ReceiverResult,
    build_fleet_report,
    record_receiver_telemetry,
)
from repro.serve.session import BroadcastSession, deterministic_payload

__all__ = [
    "BroadcastSession",
    "COHORT_KEYS",
    "CohortReport",
    "CohortSpec",
    "CohortSpecError",
    "FleetReport",
    "FleetRun",
    "ReceiverResult",
    "ReceiverSpec",
    "build_fleet_report",
    "compile_receivers",
    "deterministic_payload",
    "parse_cohorts",
    "record_receiver_telemetry",
    "run_fleet",
]
