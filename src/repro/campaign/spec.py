"""Campaign specs: the whole scenario matrix in one grammar string.

A campaign describes a dense condition matrix -- the way Revelio and
DeepLight report results (PAPERS.md) -- as the cross product of a few
**axes**, in the same compact spec style as ``--faults``
(:mod:`repro.faults.plan`) and ``--cohorts`` (:mod:`repro.serve.cohort`)::

    SPEC := axis ("|" axis)*
    axis := name "=" value ("," value)*

for example::

    parameter=tau:8,12,16|faults=none,drop:p=0.1,flip:at=0.2|heal=on,off

A workload value is one slot whose pairs are joined by ``+``, since the
axis owns ``,``; numbers print as every spec grammar prints them (the
shared slot rules are in docs/robustness.md §1).

Axes (all optional; a missing axis contributes its single default):

=========== ==========================================================
axis        values
=========== ==========================================================
workload    which entry point executes the unit: ``link``
            (:func:`repro.core.pipeline.run_link`), ``transport`` or
            ``transport:mode=<plain|fountain|arq|carousel>+rounds=<n>``
            (:func:`~repro.core.pipeline.run_transport_link`), and
            ``fleet`` or ``fleet:n=<receivers>+distance=<d>+dwell=<s>``
            (:func:`repro.serve.run_fleet`).  Default ``link``.
parameter   one swept config field: ``parameter=tau:8,12,16``.  The
            axis may repeat with different fields; every field must be
            in :data:`SWEEPABLE`.  ``seeds`` is the replicate count --
            a unit with ``seeds=4`` runs four spawn-keyed replicates
            and reports their pooled statistics.
video       display content: ``gray``, ``dark-gray``, ``video``.
faults      ``none`` or an embedded :mod:`repro.faults` spec with
            ``/`` standing in for ``;`` and ``+`` for ``,`` (the outer
            grammar owns those), e.g. ``drop:p=0.1+burst=3/flip:at=0.5``.
heal        ``on`` / ``off`` / ``auto`` (heal exactly when faulted).
=========== ==========================================================

Determinism contract
--------------------
Expansion is a plain cross product in canonical axis order (workload,
video, parameters in spec order, faults, heal), so the same spec always
yields the same ordered tuple of :class:`~repro.campaign.units.WorkUnit`
payloads.  Each unit's seed is :func:`~repro._util.stable_seed` of the
campaign seed and the unit's canonical key -- its own spawn key into the
run's ``SeedSequence`` streams -- so a unit's result depends only on its
key, never on scheduling, worker count, retries, or which other units
exist.  ``fingerprint`` digests the whole expansion; resuming a journal
recorded under a different expansion is refused rather than silently
re-keyed.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro._util import stable_seed
from repro._util.spec import SlotGrammar, format_number, integer, number
from repro.campaign.units import TRANSPORT_MODES, WorkUnit
from repro.faults.plan import (
    FaultPlan,
    FaultSpecError,
    decode_faults_value,
    encode_faults_value,
)

#: Config/camera fields a campaign (or ``repro.tools.sweep``) may sweep,
#: with the scalar type their values must coerce to.  ``tau``,
#: ``amplitude``, ``pixels_per_block`` and ``decision_margin`` are
#: :class:`~repro.core.config.InFrameConfig` fields; ``exposure_s`` and
#: ``distance`` reshape the capture camera; ``seeds`` is the number of
#: spawn-keyed replicates pooled into one unit.
SWEEPABLE: dict[str, type] = {
    "tau": int,
    "amplitude": float,
    "pixels_per_block": int,
    "decision_margin": float,
    "exposure_s": float,
    "distance": float,
    "seeds": int,
}

#: Sweepable keys that are ``InFrameConfig.with_updates`` fields.
CONFIG_KEYS = ("tau", "amplitude", "pixels_per_block", "decision_margin")
#: Sweepable keys that reshape the camera model instead.
CAMERA_KEYS = ("exposure_s", "distance")

_AXIS_NAMES = ("workload", "video", "parameter", "faults", "heal")
_VIDEOS = ("gray", "dark-gray", "video")
_HEALS = ("on", "off", "auto")


class CampaignSpecError(ValueError):
    """Raised when a campaign spec string cannot be parsed."""


def _transport_mode(text: str) -> str:
    if text not in TRANSPORT_MODES:
        raise ValueError(
            f"unknown transport mode {text!r} (known: {', '.join(TRANSPORT_MODES)})"
        )
    return text


_WORKLOAD = SlotGrammar(
    "workload",
    CampaignSpecError,
    {
        "link": {},
        "transport": {"mode": _transport_mode, "rounds": integer},
        "fleet": {"n": integer, "distance": number, "dwell": number},
    },
    sep="+",
)


def coerce_sweep_values(
    parameter: str, values: Sequence[object]
) -> tuple[float | int, ...]:
    """Validate and coerce one sweepable parameter's values.

    Raises :class:`CampaignSpecError` naming every sweepable key when
    the parameter is unknown, the values do not coerce to the field's
    scalar type, or a value is out of its legal range -- the parse-time
    validation both the campaign grammar and ``repro.tools.sweep`` use.
    """
    if parameter not in SWEEPABLE:
        raise CampaignSpecError(
            f"unknown sweepable parameter {parameter!r} "
            f"(sweepable: {', '.join(sorted(SWEEPABLE))})"
        )
    caster = SWEEPABLE[parameter]
    coerced: list[float | int] = []
    for value in values:
        try:
            coerced.append(caster(value))
        except (TypeError, ValueError):
            raise CampaignSpecError(
                f"values for {parameter!r} must be {caster.__name__}s, "
                f"got {value!r} (sweepable: {', '.join(sorted(SWEEPABLE))})"
            ) from None
    if not coerced:
        raise CampaignSpecError(f"parameter {parameter!r} needs at least one value")
    if parameter == "seeds" and any(v < 1 for v in coerced):
        raise CampaignSpecError("seeds (replicate count) must be >= 1")
    if parameter in ("distance", "exposure_s") and any(v <= 0 for v in coerced):
        raise CampaignSpecError(f"{parameter} values must be > 0")
    return tuple(coerced)


@dataclass(frozen=True)
class Axis:
    """One campaign axis: a label and its ordered canonical value labels.

    ``name`` is ``workload`` / ``video`` / ``faults`` / ``heal`` or
    ``parameter:<field>``; ``key_label`` is what unit keys use for the
    assignment (the bare field name for parameter axes).
    """

    name: str
    values: tuple[str, ...]

    @property
    def key_label(self) -> str:
        """The assignment label used inside unit keys."""
        if self.name.startswith("parameter:"):
            return self.name.partition(":")[2]
        return self.name

    def spec(self) -> str:
        """The round-trippable axis text."""
        if self.name.startswith("parameter:"):
            field = self.name.partition(":")[2]
            return f"parameter={field}:{','.join(self.values)}"
        return f"{self.name}={','.join(self.values)}"


def _parse_faults_value(text: str) -> str:
    """Validate one faults value; returns its canonical embedded label."""
    if text == "none":
        return text
    try:
        plan = FaultPlan.parse(decode_faults_value(text))
    except FaultSpecError as exc:
        raise CampaignSpecError(f"faults value {text!r}: {exc}") from exc
    return encode_faults_value(plan.spec())


def _parse_axis(part: str) -> Axis:
    """One ``name=value,value`` axis clause."""
    name, eq, body = part.partition("=")
    name = name.strip()
    if not eq or not name:
        raise CampaignSpecError(
            f"malformed axis {part!r} (expected name=value[,value...]; "
            f"axes: {', '.join(_AXIS_NAMES)})"
        )
    if name not in _AXIS_NAMES:
        raise CampaignSpecError(
            f"unknown axis {name!r} (axes: {', '.join(_AXIS_NAMES)})"
        )
    if name == "parameter":
        field, colon, csv = body.partition(":")
        field = field.strip()
        if not colon:
            raise CampaignSpecError(
                f"parameter axis needs 'field:v1,v2,...', got {body!r}"
            )
        values = coerce_sweep_values(field, [v.strip() for v in csv.split(",")])
        return Axis(
            name=f"parameter:{field}",
            values=tuple(format_number(v) for v in values),
        )
    raw = [v.strip() for v in body.split(",") if v.strip()]
    if not raw:
        raise CampaignSpecError(f"axis {name!r} has no values")
    if name == "workload":
        labels = tuple(_WORKLOAD.format(*_WORKLOAD.read(v)) for v in raw)
    elif name == "video":
        for v in raw:
            if v not in _VIDEOS:
                raise CampaignSpecError(
                    f"unknown video {v!r} (known: {', '.join(_VIDEOS)})"
                )
        labels = tuple(raw)
    elif name == "faults":
        labels = tuple(_parse_faults_value(v) for v in raw)
    else:  # heal
        for v in raw:
            if v not in _HEALS:
                raise CampaignSpecError(
                    f"heal value must be one of {', '.join(_HEALS)}, got {v!r}"
                )
        labels = tuple(raw)
    if len(set(labels)) != len(labels):
        raise CampaignSpecError(f"axis {name!r} repeats a value")
    return Axis(name=name, values=labels)


_DEFAULTS = {"workload": "link", "video": "gray", "faults": "none", "heal": "auto"}


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed campaign: axes in canonical order, defaults filled in."""

    axes: tuple[Axis, ...]

    @staticmethod
    def parse(text: str) -> "CampaignSpec":
        """Parse the axis grammar; raises :class:`CampaignSpecError`."""
        parts = [part.strip() for part in text.split("|") if part.strip()]
        if not parts:
            raise CampaignSpecError("campaign spec is empty")
        parsed = [_parse_axis(part) for part in parts]
        seen: set[str] = set()
        for axis in parsed:
            if axis.name in seen:
                raise CampaignSpecError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
        # Canonical order: workload, video, parameters (spec order), faults, heal.
        by_name = {axis.name: axis for axis in parsed}
        axes: list[Axis] = []
        for name in ("workload", "video"):
            axes.append(by_name.get(name, Axis(name, (_DEFAULTS[name],))))
        axes.extend(a for a in parsed if a.name.startswith("parameter:"))
        for name in ("faults", "heal"):
            axes.append(by_name.get(name, Axis(name, (_DEFAULTS[name],))))
        return CampaignSpec(axes=tuple(axes))

    def spec(self) -> str:
        """The canonical round-trippable spec string."""
        return "|".join(axis.spec() for axis in self.axes)

    @property
    def n_units(self) -> int:
        """How many work units the cross product expands to."""
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def expand(
        self,
        *,
        scale: str = "benchmark",
        seed: int = 1,
        payload_bytes: int = 64,
        fault_seed: int | None = None,
    ) -> tuple[WorkUnit, ...]:
        """The full, ordered work-unit expansion of this campaign.

        Every randomized aspect of a unit derives from
        ``stable_seed(seed, key)`` -- the unit's own spawn key -- so the
        expansion is a pure function of ``(spec, scale, seed,
        payload_bytes, fault_seed)`` and each unit's result is
        independent of scheduling, worker count, and retries.
        """
        units: list[WorkUnit] = []
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            assignment = dict(zip((a.key_label for a in self.axes), combo))
            key = "|".join(
                f"{axis.key_label}={label}"
                for axis, label in zip(self.axes, combo)
            )
            unit_seed = stable_seed(seed, key)
            units.append(
                _build_unit(
                    index=index,
                    key=key,
                    assignment=assignment,
                    scale=scale,
                    seed=unit_seed,
                    fault_seed=(
                        unit_seed
                        if fault_seed is None
                        else stable_seed(fault_seed, key)
                    ),
                    payload_bytes=payload_bytes,
                )
            )
        return tuple(units)

    def fingerprint(
        self,
        *,
        scale: str = "benchmark",
        seed: int = 1,
        payload_bytes: int = 64,
        fault_seed: int | None = None,
    ) -> int:
        """A stable digest of the full expansion (the resume guard)."""
        return stable_seed(
            "campaign", self.spec(), scale, seed, payload_bytes, fault_seed
        )


def _build_unit(
    *,
    index: int,
    key: str,
    assignment: dict[str, str],
    scale: str,
    seed: int,
    fault_seed: int,
    payload_bytes: int,
) -> WorkUnit:
    """One axis assignment decoded into an executable work unit."""
    base, params = _WORKLOAD.read(assignment["workload"])
    transport_mode = dict(params).get("mode", "fountain")
    config_overrides: list[tuple[str, float]] = []
    camera_overrides: list[tuple[str, float]] = []
    replicates = 1
    for field, label in assignment.items():
        if field not in SWEEPABLE:
            continue
        value = float(SWEEPABLE[field](label))
        if field == "seeds":
            replicates = int(value)
        elif field in CAMERA_KEYS:
            camera_overrides.append((field, value))
        else:
            config_overrides.append((field, value))
    heal_label = assignment["heal"]
    return WorkUnit(
        index=index,
        key=key,
        workload=base,
        scale=scale,
        video=assignment["video"],
        seed=seed,
        fault_seed=fault_seed,
        replicates=replicates,
        config_overrides=tuple(config_overrides),
        camera_overrides=tuple(camera_overrides),
        faults_spec=(
            None if assignment["faults"] == "none" else decode_faults_value(assignment["faults"])
        ),
        heal={"on": True, "off": False, "auto": None}[heal_label],
        payload_bytes=payload_bytes,
        transport_mode=transport_mode,
        workload_params=tuple((k, float(v)) for k, v in params if k != "mode"),
    )
