"""Cohort specs: who is watching the broadcast, in one grammar string.

A fleet is described the way ``--faults`` describes chaos: a compact,
round-trippable spec of one cohort slot per ``|``, each a free name plus
``,``-separated ``key=value`` parameters (the slot rules every spec
grammar shares are in docs/robustness.md §1)::

    lobby:n=24,join_spread=1.0|far:n=8,distance=1.6,join_spread=1.0,faults=drop:p=0.15

Parameters (times in seconds; every key but ``faults`` is a number):

================= ======================================================
key               meaning
================= ======================================================
n                 receivers in the cohort (1)
fps               capture rate override (inherit the base camera)
exposure          per-row exposure override in seconds (inherit)
offset            extra camera clock offset beyond the join time (0)
offset_spread     per-receiver uniform draw added to ``offset`` (0)
drift_ppm         extra camera clock drift in ppm (0)
drift_spread_ppm  per-receiver uniform +/- draw around ``drift_ppm`` (0)
distance          viewing distance relative to the paper's 50 cm setup;
                  the screen fill shrinks as ``base_fill / distance`` (1)
join              when the receiver starts watching (0)
join_spread       per-receiver uniform draw added to ``join`` (0)
dwell             how long the receiver watches (the fleet default)
heal              1/0 forces the self-healing decoder on/off (default:
                  heal exactly when the cohort carries faults)
faults            an embedded :mod:`repro.faults` spec with ``/`` for
                  ``;`` and ``+`` for ``,`` (the outer grammar owns
                  those), e.g. ``faults=drop:p=0.1+burst=3/blackout:at=0.5+dur=0.4``
================= ======================================================

Determinism contract
--------------------
Per-receiver draws (join phase, clock offset, drift) come from
``spawn_rng(seed, _KEY_COHORT, cohort_index, member_index)`` and are made
in the parent before any worker runs; a cohort-level fault plan is
re-seeded per receiver through :meth:`~repro.faults.FaultPlan.for_receiver`.
Compiling the same spec with the same seed therefore yields bit-identical
:class:`ReceiverSpec` tuples at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._util.spec import Caster, SlotGrammar, number, split_slots
from repro.camera.capture import CameraModel
from repro.faults.plan import FaultPlan, decode_faults_value
from repro.runtime.scheduler import spawn_rng

#: Every cohort key and the caster that reads its value; the defaults
#: are :class:`CohortSpec`'s.
COHORT_KEYS: dict[str, Caster] = {
    "n": lambda text: int(number(text)),
    "fps": number,
    "exposure": number,
    "offset": number,
    "offset_spread": number,
    "drift_ppm": number,
    "drift_spread_ppm": number,
    "distance": number,
    "join": number,
    "join_spread": number,
    "dwell": number,
    "heal": lambda text: bool(number(text)),
    "faults": lambda text: FaultPlan.parse(decode_faults_value(text)),
}

#: The :class:`CohortSpec` field a key sets, where the names differ.
_FIELDS = {
    "exposure": "exposure_s",
    "offset": "offset_s",
    "offset_spread": "offset_spread_s",
    "join": "join_s",
    "join_spread": "join_spread_s",
    "dwell": "dwell_s",
}

#: Spawn-key namespace of the per-receiver parameter draws.
_KEY_COHORT = 0xC0407


class CohortSpecError(ValueError):
    """Raised when a cohort spec string cannot be parsed."""


_SLOTS = SlotGrammar("cohort", CohortSpecError)


@dataclass(frozen=True)
class CohortSpec:
    """One named cohort of receivers sharing a parameter distribution."""

    name: str
    n: int = 1
    fps: float | None = None
    exposure_s: float | None = None
    offset_s: float = 0.0
    offset_spread_s: float = 0.0
    drift_ppm: float = 0.0
    drift_spread_ppm: float = 0.0
    distance: float = 1.0
    join_s: float = 0.0
    join_spread_s: float = 0.0
    dwell_s: float | None = None
    faults: FaultPlan | None = None
    heal: bool | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CohortSpecError("cohort name must be non-empty")
        if self.n < 1:
            raise CohortSpecError(f"cohort {self.name!r}: n must be >= 1, got {self.n}")
        if self.distance <= 0.0:
            raise CohortSpecError(
                f"cohort {self.name!r}: distance must be > 0, got {self.distance}"
            )
        for label, value in (
            ("offset_spread", self.offset_spread_s),
            ("drift_spread_ppm", self.drift_spread_ppm),
            ("join_spread", self.join_spread_s),
        ):
            if value < 0.0:
                raise CohortSpecError(
                    f"cohort {self.name!r}: {label} must be >= 0, got {value}"
                )
        if self.join_s < 0.0:
            raise CohortSpecError(
                f"cohort {self.name!r}: join must be >= 0, got {self.join_s}"
            )
        if self.dwell_s is not None and self.dwell_s <= 0.0:
            raise CohortSpecError(
                f"cohort {self.name!r}: dwell must be > 0, got {self.dwell_s}"
            )


@dataclass(frozen=True)
class ReceiverSpec:
    """One concrete receiver, every parameter drawn and frozen.

    ``faults`` is already the receiver's own plan (cohort plan re-seeded
    through :meth:`~repro.faults.FaultPlan.for_receiver`), and ``heal``
    is resolved -- workers execute specs verbatim, drawing nothing.
    """

    receiver_id: int
    cohort: str
    join_s: float
    dwell_s: float | None
    clock_offset_s: float
    extra_drift: float
    distance: float
    fps: float | None = None
    exposure_s: float | None = None
    faults: FaultPlan | None = None
    heal: bool = False

    def camera(self, base: CameraModel) -> CameraModel:
        """This receiver's camera, derived from the fleet's base model."""
        drift = min(max(base.clock_drift + self.extra_drift, -0.01), 0.01)
        return replace(
            base.at_distance(self.distance),
            fps=self.fps if self.fps is not None else base.fps,
            exposure_s=self.exposure_s if self.exposure_s is not None else base.exposure_s,
            clock_offset_s=self.clock_offset_s,
            clock_drift=drift,
        )


def parse_cohorts(spec: str, seed: int = 0) -> tuple[CohortSpec, ...]:
    """Parse a fleet spec string into cohort specs.

    Raises :class:`CohortSpecError` on unknown or repeated keys, malformed
    pairs, unreadable values, duplicate cohort names, or an empty spec.
    *seed* seeds every cohort's fault plan (receivers then derive their
    own).
    """
    cohorts: list[CohortSpec] = []
    for slot in split_slots(spec, "|"):
        name, params = _SLOTS.read(slot, COHORT_KEYS)
        if not name or any(c in name for c in "=, \t"):
            raise CohortSpecError(
                f"malformed cohort name {name!r} (did you forget the 'name:' prefix?)"
            )
        if any(cohort.name == name for cohort in cohorts):
            raise CohortSpecError(f"duplicate cohort name {name!r}")
        fields = {_FIELDS.get(key, key): value for key, value in params}
        if "faults" in fields:
            fields["faults"] = replace(fields["faults"], seed=seed)
        cohorts.append(CohortSpec(name=name, **fields))
    if not cohorts:
        raise CohortSpecError("cohort spec is empty")
    return tuple(cohorts)


def compile_receivers(
    cohorts: tuple[CohortSpec, ...] | list[CohortSpec], seed: int = 0
) -> tuple[ReceiverSpec, ...]:
    """Draw every receiver's concrete parameters, in the parent, once.

    Receiver ids are global and sequential across cohorts (in spec
    order), so a receiver's identity -- and therefore its RNG streams
    and derived fault seed -- does not depend on how the fan-out later
    chunks the fleet.
    """
    specs: list[ReceiverSpec] = []
    receiver_id = 0
    for cohort_index, cohort in enumerate(cohorts):
        for member in range(cohort.n):
            rng = spawn_rng(seed, _KEY_COHORT, cohort_index, member)
            join = cohort.join_s + float(rng.uniform(0.0, 1.0)) * cohort.join_spread_s
            offset = (
                cohort.offset_s
                + float(rng.uniform(0.0, 1.0)) * cohort.offset_spread_s
            )
            drift_ppm = cohort.drift_ppm + float(
                rng.uniform(-1.0, 1.0)
            ) * cohort.drift_spread_ppm
            faults = (
                cohort.faults.for_receiver(receiver_id)
                if cohort.faults is not None
                else None
            )
            heal = cohort.heal if cohort.heal is not None else faults is not None
            specs.append(
                ReceiverSpec(
                    receiver_id=receiver_id,
                    cohort=cohort.name,
                    join_s=join,
                    dwell_s=cohort.dwell_s,
                    clock_offset_s=join + offset,
                    extra_drift=drift_ppm * 1e-6,
                    distance=cohort.distance,
                    fps=cohort.fps,
                    exposure_s=cohort.exposure_s,
                    faults=faults,
                    heal=heal,
                )
            )
            receiver_id += 1
    return tuple(specs)
