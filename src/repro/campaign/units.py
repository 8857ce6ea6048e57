"""Work units: one frozen, seed-stamped scenario cell and its executor.

A :class:`WorkUnit` is the campaign's unit of work -- the
``_SweepContext`` idea generalized: everything one scenario cell needs,
frozen in the master before any worker runs, carrying its own
spawn-keyed seed so the result is a pure function of the unit itself.
:func:`execute_unit` runs a unit through the existing entry points
(:func:`repro.core.pipeline.run_link`,
:func:`~repro.core.pipeline.run_transport_link`,
:func:`repro.serve.fanout.run_fleet`) and returns a
:class:`UnitResult`: a flat statistics row plus the run's serialized
:class:`~repro.obs.RunTelemetry`, which the master folds through the
exact-merge :mod:`repro.obs` registry.

Deterministically *invalid* cells (a config rejecting a swept value, a
malformed embedded spec) return ``ok=False, retryable=False`` -- they
are part of the matrix and land in the report like any other unit.
Only unexpected crashes are marked retryable by the master's dispatch
wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, cast

from repro._util import stable_seed
from repro.obs import RunTelemetry
from repro.obs.telemetry import TelemetryDict

if TYPE_CHECKING:  # imported lazily at run time to keep import cost low
    from repro.analysis.experiments import ExperimentScale
    from repro.camera.capture import CameraModel
    from repro.core.config import InFrameConfig
    from repro.faults.plan import FaultPlan

#: Entry points a unit may execute through.
WORKLOADS = ("link", "transport", "fleet")
#: Transport schemes the ``transport`` workload accepts.
TRANSPORT_MODES = ("plain", "fountain", "arq", "carousel")

#: Fleet-workload defaults when the spec gives no parameters.
_FLEET_DEFAULTS = {"n": 4.0, "distance": 1.0, "dwell": 2.5}
#: Transport-workload default forward-pass bound.
_TRANSPORT_ROUNDS = 3


@dataclass(frozen=True)
class WorkUnit:
    """One scenario cell, fully resolved and schedulable anywhere.

    Attributes
    ----------
    index, key:
        Position in the canonical expansion and the canonical axis
        assignment string (``workload=link|video=gray|tau=8|...``) --
        the unit's identity in journals and reports.
    workload:
        Which entry point runs the cell (``link``/``transport``/``fleet``).
    seed, fault_seed:
        The unit's own spawn keys (``stable_seed(campaign seed, key)``);
        nothing about the result depends on any other unit.
    replicates:
        Spawn-keyed repeat count (the ``seeds`` parameter); replicate
        *r* runs at ``stable_seed(seed, r)`` and rows report the pooled
        means.
    config_overrides, camera_overrides:
        Swept ``InFrameConfig`` fields and camera reshapes
        (``exposure_s``, ``distance``), as ``(name, value)`` pairs.
    faults_spec:
        The unit's fault plan in the native ``--faults`` grammar, or
        ``None``.
    heal:
        Self-healing decode: True/False, or ``None`` for "exactly when
        faulted".
    payload_bytes, transport_mode, workload_params:
        Transport/fleet workload shape.
    """

    index: int
    key: str
    workload: str
    scale: str
    video: str
    seed: int
    fault_seed: int
    replicates: int = 1
    config_overrides: tuple[tuple[str, float], ...] = ()
    camera_overrides: tuple[tuple[str, float], ...] = ()
    faults_spec: str | None = None
    heal: bool | None = None
    payload_bytes: int = 64
    transport_mode: str = "fountain"
    workload_params: tuple[tuple[str, float], ...] = ()

    def params(self) -> dict[str, float]:
        """Every swept assignment of this unit (for report rows)."""
        out = dict(self.config_overrides)
        out.update(self.camera_overrides)
        if self.replicates != 1:
            out["seeds"] = float(self.replicates)
        return out


@dataclass(frozen=True)
class UnitResult:
    """What one executed unit produced (JSON round-trippable).

    ``row`` is the unit's flat statistics (floats keyed by stat name);
    ``telemetry`` is the run's serialized
    :class:`~repro.obs.RunTelemetry`.  ``ok=False, retryable=False``
    marks a deterministic failure (invalid cell) that belongs in the
    report; ``retryable=True`` marks a crash the master may re-lease.
    """

    index: int
    key: str
    ok: bool
    row: dict[str, float] = field(default_factory=dict)
    telemetry: TelemetryDict | None = None
    error: str | None = None
    retryable: bool = False

    def as_dict(self) -> dict[str, object]:
        """Plain-JSON form (the journal's ``done`` record payload)."""
        return {
            "index": self.index,
            "key": self.key,
            "ok": self.ok,
            "row": dict(self.row),
            "telemetry": self.telemetry,
            "error": self.error,
            "retryable": self.retryable,
        }

    @staticmethod
    def from_dict(payload: dict[str, object]) -> "UnitResult":
        """Rebuild a result from :meth:`as_dict` output."""
        row = cast("dict[str, float]", payload.get("row") or {})
        return UnitResult(
            index=int(cast(int, payload["index"])),
            key=str(payload["key"]),
            ok=bool(payload["ok"]),
            row={str(k): float(v) for k, v in row.items()},
            telemetry=cast("TelemetryDict | None", payload.get("telemetry")),
            error=cast("str | None", payload.get("error")),
            retryable=bool(payload.get("retryable", False)),
        )


def execute_unit(unit: WorkUnit) -> UnitResult:  # checks: worker-scope
    """Run one unit through its entry point; never raises for bad cells.

    Replicates run at spawn-derived seeds and are pooled by plain means
    (computed in replicate order, so the row is deterministic).  A
    ``ValueError`` from config/spec validation is a property of the
    cell, not of the execution, and returns a non-retryable failure.
    """
    try:
        rows: list[dict[str, float]] = []
        telemetries: list[RunTelemetry | None] = []
        for rep in range(unit.replicates):
            rep_seed = unit.seed if unit.replicates == 1 else stable_seed(unit.seed, rep)
            rep_fault_seed = (
                unit.fault_seed
                if unit.replicates == 1
                else stable_seed(unit.fault_seed, rep)
            )
            row, telemetry = _run_replicate(unit, rep_seed, rep_fault_seed)
            rows.append(row)
            telemetries.append(telemetry)
    except ValueError as exc:  # includes FaultSpecError / CohortSpecError
        return UnitResult(
            index=unit.index,
            key=unit.key,
            ok=False,
            error=str(exc),
            retryable=False,
        )
    merged = RunTelemetry.merge(telemetries)
    return UnitResult(
        index=unit.index,
        key=unit.key,
        ok=True,
        row=_pool_rows(rows),
        telemetry=merged.as_dict() if merged is not None else None,
    )


def _pool_rows(rows: list[dict[str, float]]) -> dict[str, float]:
    """Replicate rows pooled into one (plain means, replicate order)."""
    if len(rows) == 1:
        return dict(rows[0])
    pooled: dict[str, float] = {}
    for name in rows[0]:
        pooled[name] = sum(row[name] for row in rows) / len(rows)
    return pooled


def _run_replicate(
    unit: WorkUnit, seed: int, fault_seed: int
) -> tuple[dict[str, float], RunTelemetry | None]:
    """One replicate through the unit's entry point."""
    from repro.analysis.experiments import ExperimentScale
    from repro.faults.plan import FaultPlan

    if unit.workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {unit.workload!r} (known: {', '.join(WORKLOADS)})"
        )
    scale_factory = getattr(ExperimentScale, unit.scale, None)
    if scale_factory is None:
        raise ValueError(f"unknown scale {unit.scale!r} (quick, benchmark, full)")
    scale = scale_factory()
    overrides = {name: value for name, value in unit.config_overrides}
    for name in ("tau", "pixels_per_block"):
        if name in overrides:
            overrides[name] = int(overrides[name])
    config = scale.config().with_updates(**overrides)
    camera = scale.camera()
    for name, value in unit.camera_overrides:
        if name == "exposure_s":
            camera = replace(camera, exposure_s=float(value))
        elif name == "distance":
            camera = camera.at_distance(float(value))
    faults = (
        FaultPlan.parse(unit.faults_spec, seed=fault_seed)
        if unit.faults_spec
        else None
    )
    if unit.workload == "link":
        return _run_link_replicate(unit, scale, config, camera, faults, seed)
    if unit.workload == "transport":
        return _run_transport_replicate(unit, scale, config, camera, faults, seed)
    return _run_fleet_replicate(unit, scale, config, camera, faults, seed)


def _run_link_replicate(
    unit: WorkUnit,
    scale: ExperimentScale,
    config: InFrameConfig,
    camera: CameraModel,
    faults: FaultPlan | None,
    seed: int,
) -> tuple[dict[str, float], RunTelemetry | None]:
    from repro.core.pipeline import run_link

    run = run_link(
        config,
        scale.video(unit.video),
        camera=camera,
        seed=seed,
        faults=faults,
        heal=unit.heal,
        collect_telemetry=True,
    )
    stats = run.stats
    row = {
        "available": float(stats.available_gob_ratio),
        "error_rate": float(stats.gob_error_rate),
        "bit_accuracy": float(stats.bit_accuracy),
        "throughput_kbps": float(stats.throughput_kbps),
    }
    return row, run.telemetry


def _run_transport_replicate(
    unit: WorkUnit,
    scale: ExperimentScale,
    config: InFrameConfig,
    camera: CameraModel,
    faults: FaultPlan | None,
    seed: int,
) -> tuple[dict[str, float], RunTelemetry | None]:
    from repro.core.pipeline import run_transport_link
    from repro.serve.session import deterministic_payload

    params = dict(unit.workload_params)
    run = run_transport_link(
        config,
        scale.video(unit.video),
        deterministic_payload(unit.payload_bytes, seed=seed),
        mode=unit.transport_mode,
        camera=camera,
        seed=seed,
        max_rounds=int(params.get("rounds", _TRANSPORT_ROUNDS)),
        faults=faults,
        heal=unit.heal,
        collect_telemetry=True,
    )
    stats = run.stats
    row = {
        "delivered": 1.0 if stats.delivered else 0.0,
        "rounds": float(stats.rounds),
        "overhead": float(stats.overhead),
        "goodput_kbps": float(stats.goodput_bps) / 1000.0,
    }
    return row, run.telemetry


def _run_fleet_replicate(
    unit: WorkUnit,
    scale: ExperimentScale,
    config: InFrameConfig,
    camera: CameraModel,
    faults: FaultPlan | None,
    seed: int,
) -> tuple[dict[str, float], RunTelemetry | None]:
    from repro.serve.cohort import CohortSpec
    from repro.serve.fanout import run_fleet
    from repro.serve.session import BroadcastSession, deterministic_payload

    params = {**_FLEET_DEFAULTS, **dict(unit.workload_params)}
    cohort = CohortSpec(
        name="unit",
        n=int(params["n"]),
        join_spread_s=0.5,
        dwell_s=params["dwell"],
        distance=params["distance"],
        # Every replicate's cohort plan keeps the unit's fault seed.
        faults=None if faults is None else replace(faults, seed=unit.fault_seed),
        heal=unit.heal,
    )
    payload = deterministic_payload(unit.payload_bytes, seed=seed)
    with BroadcastSession(config, scale.video(unit.video), payload) as session:
        fleet = run_fleet(session, (cohort,), base_camera=camera, seed=seed)
    report = fleet.report
    row = {
        "receivers": float(report.receivers),
        "delivered": float(report.delivered),
        "delivery_rate": float(report.delivery_rate),
        "reuse_ratio": float(report.reuse_ratio),
    }
    return row, fleet.telemetry
