"""Fault plans: a seeded, composable description of what goes wrong.

A :class:`FaultPlan` is the reproducible unit of chaos: a seed plus a
tuple of :class:`FaultSpec` entries, each naming one fault process and
its parameters.  Plans come from the ``--faults`` CLI spec grammar: one
fault slot per ``;``, pairs separated by ``,`` (the slot rules every
spec grammar shares are in docs/robustness.md §1)::

    drop:p=0.10,burst=3;flip:at=0.35;exposure:at=0.55,gain=0.65;blackout:at=0.7,dur=0.5

The cohort and campaign grammars separate their own fields with ``;``
and ``,``, so a spec nested inside them is written with ``/`` for ``;``
and ``+`` for ``,`` (:func:`encode_faults_value`,
:func:`decode_faults_value`)::

    drop:p=0.1+burst=3/flip:at=0.35

Faults and their parameters (``at`` values are fractions of the capture
stream's duration, so a spec is scale-independent).  Every value is a
finite number; ``p`` is in [0, 1] and ``std``, ``dur``, ``burst``,
``span``, ``frames`` and ``gain`` are ``>= 0``:

========== =======================================================================
name       parameters
========== =======================================================================
drop       ``p`` erased capture fraction (0.1), ``burst`` mean burst length (1)
dup        ``p`` fraction of captures delivering stale pixels (0.05)
reorder    ``p`` fraction of swap events (0.05), ``span`` swap distance (2)
flip       ``at`` onset fraction (0.5), ``frames`` slipped display frames (1).
           The default is a complementary-pair polarity flip (the camera
           clock slips one display frame); larger odd counts model a camera
           pipeline stall that also inverts the pairing
drift      ``ppm`` camera clock frequency error injected on top of the model
           camera's own drift (300)
jitter     ``std`` extra per-capture timing jitter in seconds (2e-3)
exposure   ``at`` onset (0.5), ``gain`` multiplicative exposure step (0.7)
ambient    ``at`` onset (0.5), ``add`` ambient pedestal step in counts (25)
blackout   ``at`` onset (0.5), ``dur`` occlusion length in seconds (0.5)
corrupt    ``p`` per-packet byte-corruption probability (0.05)
truncate   ``p`` per-packet truncation probability (0.02)
========== =======================================================================

Determinism contract
--------------------
Everything random about a plan is derived from ``(plan.seed, fault
kind, capture index)`` through spawn-keyed :class:`numpy.random.SeedSequence`
streams, and every per-capture decision is *compiled* in the parent
process before any worker runs (:meth:`FaultPlan.compile`).  The same
plan therefore injects bit-identical faults at ``workers=1`` and
``workers=N`` -- the property ``tests/test_faults.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._util.spec import Caster, SlotGrammar, finite, split_slots
from repro.runtime.scheduler import spawn_rng

#: Known fault kinds and their (parameter, default) tables.
FAULT_KINDS: dict[str, dict[str, float]] = {
    "drop": {"p": 0.10, "burst": 1.0},
    "dup": {"p": 0.05},
    "reorder": {"p": 0.05, "span": 2.0},
    "flip": {"at": 0.5, "frames": 1.0},
    "drift": {"ppm": 300.0},
    "jitter": {"std": 2e-3},
    "exposure": {"at": 0.5, "gain": 0.7},
    "ambient": {"at": 0.5, "add": 25.0},
    "blackout": {"at": 0.5, "dur": 0.5},
    "corrupt": {"p": 0.05},
    "truncate": {"p": 0.02},
}

#: Spawn-key namespaces, one per randomised fault process.
_KEY_DROP = 0xD509
_KEY_DUP = 0xD0B1
_KEY_REORDER = 0x5EA9
_KEY_JITTER = 0x4177
_KEY_PACKET = 0xBAD5

#: Luminance counts an occluder (hand, passer-by) presents to the sensor.
_OCCLUDER_LEVEL = 24.0


class FaultSpecError(ValueError):
    """Raised when a ``--faults`` spec string cannot be parsed."""


#: The casters of the range-limited parameters; any other parameter reads
#: as any finite number.
_CASTERS: dict[str, Caster] = {
    "p": finite(0.0, 1.0),
    **dict.fromkeys(("std", "dur", "burst", "span", "frames", "gain"), finite(0.0)),
}

_SLOTS = SlotGrammar(
    "fault",
    FaultSpecError,
    {
        kind: {key: _CASTERS.get(key, finite()) for key in params}
        for kind, params in FAULT_KINDS.items()
    },
)


def encode_faults_value(native: str) -> str:
    """A native faults spec in the embedded (``/``/``+``) grammar."""
    return native.replace(";", "/").replace(",", "+")


def decode_faults_value(embedded: str) -> str:
    """An embedded faults value back in the native ``;``/``,`` grammar."""
    return embedded.replace("/", ";").replace("+", ",")


@dataclass(frozen=True)
class FaultSpec:
    """One named fault process with its parameter overrides."""

    kind: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _SLOTS.check(self.kind, self.params)

    def __getitem__(self, key: str) -> float:
        for name, value in self.params:
            if name == key:
                return value
        return FAULT_KINDS[self.kind][key]

    def spec(self) -> str:
        """The spec-grammar form of this fault."""
        return _SLOTS.format(self.kind, self.params)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of fault processes.

    Attributes
    ----------
    seed:
        Root of every random draw the plan makes; two runs sharing a
        plan (seed and faults) are perturbed bit-identically.
    faults:
        The fault processes, applied in order.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``--faults`` grammar into a plan.

        Raises :class:`FaultSpecError` on an unknown fault or parameter,
        a repeated parameter, a malformed ``key=value`` pair, or a value
        that is not a finite number in its key's range.
        """
        faults = tuple(FaultSpec(*_SLOTS.read(slot)) for slot in split_slots(spec, ";"))
        if not faults:
            raise FaultSpecError("fault spec is empty")
        return FaultPlan(seed=seed, faults=faults)

    def spec(self) -> str:
        """The round-trippable spec string of this plan."""
        return ";".join(f.spec() for f in self.faults)

    def by_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        """Every fault of one kind, in plan order."""
        return tuple(f for f in self.faults if f.kind == kind)

    def for_round(self, round_index: int) -> "FaultPlan":
        """The plan for one transport round (derived seed, same faults).

        Rounds must not repeat each other's random draws -- a drop
        pattern that recurs identically every round would starve the
        same packets forever -- so each round re-seeds the random fault
        processes while the deterministic ones (steps, flips, blackout
        windows) stay put.
        """
        if round_index <= 1:
            return self
        return replace(self, seed=self.seed + 0x9E3779B1 * (round_index - 1))

    def for_receiver(self, receiver_index: int) -> "FaultPlan":
        """The plan for one broadcast receiver (derived seed, same faults).

        A cohort-level plan describes what *kind* of trouble its members
        share -- the same drop rate, the same occlusion window -- but two
        cameras in a crowd do not lose the same frames.  Each receiver
        therefore draws from its own seed stream while the plan's
        deterministic structure stays put, mirroring :meth:`for_round`'s
        contract for transport rounds.
        """
        if receiver_index <= 0:
            return self
        return replace(self, seed=self.seed + 0x85EBCA6B * receiver_index)

    def packet_faults(self) -> "PacketFaults":
        """The transport-side slice of the plan (corrupt/truncate only).

        Packet corruption keys its draws on ``(seed, round, position)``
        directly, so the transport layer can apply it without compiling
        per-capture tables it does not need.
        """
        return PacketFaults(
            seed=self.seed,
            corrupt_p=max((f["p"] for f in self.by_kind("corrupt")), default=0.0),
            truncate_p=max((f["p"] for f in self.by_kind("truncate")), default=0.0),
        )

    def compile(
        self,
        n_captures: int,
        fps: float,
        duration_s: float,
        refresh_hz: float,
        origin_s: float = 0.0,
    ) -> "CompiledFaults":
        """Pre-draw every per-capture decision for one run.

        Parameters
        ----------
        n_captures:
            Camera frames the run will take.
        fps:
            Nominal camera frame rate (positions ``at`` fractions).
        duration_s:
            Duration in seconds the ``at`` fractions span (the display
            stream for a from-the-start link; the receiver's own watch
            window for a mid-stream broadcast joiner).
        refresh_hz:
            Display refresh rate; a polarity ``flip`` slips the camera
            clock by exactly one display frame (half a complementary
            pair).
        origin_s:
            Display-clock time of the first capture.  A link run starts
            at zero; a broadcast receiver joining mid-carousel compiles
            with its join time here so onsets and blackout windows land
            inside the window it actually watches (the pixel hooks
            compare against absolute ``mid_exposure_s`` timestamps).
        """
        if n_captures < 1:
            raise ValueError(f"n_captures must be >= 1, got {n_captures}")
        nominal_mid = origin_s + (np.arange(n_captures) + 0.5) / fps

        time_offset = np.zeros(n_captures, dtype=np.float64)
        for fault in self.by_kind("drift"):
            time_offset += (nominal_mid - origin_s) * (fault["ppm"] * 1e-6)
        slip_s = 1.0 / refresh_hz
        flip_times: list[float] = []
        for fault in self.by_kind("flip"):
            onset = origin_s + fault["at"] * duration_s
            flip_times.append(onset)
            time_offset[nominal_mid >= onset] += slip_s * max(fault["frames"], 1.0)
        for fault in self.by_kind("jitter"):
            std = fault["std"]
            if std > 0.0:
                jitter = np.array(
                    [
                        float(spawn_rng(self.seed, _KEY_JITTER, i).normal(0.0, std))
                        for i in range(n_captures)
                    ]
                )
                time_offset += jitter

        dropped = np.zeros(n_captures, dtype=bool)
        for fault in self.by_kind("drop"):
            p, burst = fault["p"], max(fault["burst"], 1.0)
            rng = spawn_rng(self.seed, _KEY_DROP)
            start_p = min(p / burst, 1.0)
            i = 0
            while i < n_captures:
                if rng.random() < start_p:
                    length = 1 if burst <= 1.0 else int(rng.geometric(1.0 / burst))
                    dropped[i : i + length] = True
                    i += length
                else:
                    i += 1
        # Never erase the entire stream: the link needs one capture to
        # bound its scoring window.
        if dropped.all():
            dropped[0] = False

        duplicated = np.zeros(n_captures, dtype=bool)
        for fault in self.by_kind("dup"):
            rng = spawn_rng(self.seed, _KEY_DUP)
            duplicated |= rng.random(n_captures) < fault["p"]
        duplicated[0] = False  # nothing earlier to go stale from

        swaps: list[tuple[int, int]] = []
        for fault in self.by_kind("reorder"):
            rng = spawn_rng(self.seed, _KEY_REORDER)
            span = max(int(fault["span"]), 1)
            for i in range(n_captures - 1):
                if rng.random() < fault["p"]:
                    j = min(i + 1 + int(rng.integers(0, span)), n_captures - 1)
                    if j > i:
                        swaps.append((i, j))

        exposure_steps = tuple(
            (origin_s + f["at"] * duration_s, f["gain"]) for f in self.by_kind("exposure")
        )
        ambient_steps = tuple(
            (origin_s + f["at"] * duration_s, f["add"]) for f in self.by_kind("ambient")
        )
        blackouts = tuple(
            (origin_s + f["at"] * duration_s, origin_s + f["at"] * duration_s + f["dur"])
            for f in self.by_kind("blackout")
        )

        return CompiledFaults(
            seed=self.seed,
            n_captures=n_captures,
            time_offset_s=time_offset,
            dropped=dropped,
            duplicated=duplicated,
            swaps=tuple(swaps),
            flip_times_s=tuple(flip_times),
            exposure_steps=exposure_steps,
            ambient_steps=ambient_steps,
            blackouts=blackouts,
        )


@dataclass(frozen=True)
class CompiledFaults:
    """Every fault decision for one run, pre-drawn in the parent.

    Workers index into these tables; nothing is drawn worker-side, so
    chunk scheduling cannot change what gets injected.
    """

    seed: int
    n_captures: int
    time_offset_s: np.ndarray
    dropped: np.ndarray
    duplicated: np.ndarray
    swaps: tuple[tuple[int, int], ...]
    flip_times_s: tuple[float, ...]
    exposure_steps: tuple[tuple[float, float], ...]
    ambient_steps: tuple[tuple[float, float], ...]
    blackouts: tuple[tuple[float, float], ...]

    # ------------------------------------------------------------------
    # Worker-side hooks (pure functions of precompiled state)
    # ------------------------------------------------------------------
    def capture_time_offset(self, index: int) -> float:
        """True-minus-reported capture time shift for capture *index*."""
        if 0 <= index < self.n_captures:
            return float(self.time_offset_s[index])
        return 0.0

    def perturb_pixels(self, index: int, mid_exposure_s: float, pixels: np.ndarray) -> np.ndarray:
        """Apply exposure/ambient steps and occlusion blackouts to one capture."""
        out = pixels
        touched = False
        for onset, gain in self.exposure_steps:
            if mid_exposure_s >= onset:
                out = out * np.float32(gain)
                touched = True
        for onset, add in self.ambient_steps:
            if mid_exposure_s >= onset:
                out = out + np.float32(add)
                touched = True
        if self.in_blackout(mid_exposure_s):
            out = np.full_like(pixels, np.float32(_OCCLUDER_LEVEL))
            return out
        if touched:
            out = np.rint(np.clip(out, 0.0, 255.0)).astype(np.float32)
        return out

    def in_blackout(self, mid_exposure_s: float) -> bool:
        """Whether a capture at this (reported) time is occluded."""
        return any(t0 <= mid_exposure_s < t1 for t0, t1 in self.blackouts)

    @property
    def perturbs_captures(self) -> bool:
        """Whether any worker-side (time or pixel) fault is active."""
        return bool(
            np.any(self.time_offset_s != 0.0)
            or self.exposure_steps
            or self.ambient_steps
            or self.blackouts
        )

    @property
    def perturbs_stream(self) -> bool:
        """Whether any parent-side stream fault is active."""
        return bool(self.dropped.any() or self.duplicated.any() or self.swaps)


@dataclass(frozen=True)
class PacketFaults:
    """The transport-side fault processes, detached from capture tables."""

    seed: int
    corrupt_p: float = 0.0
    truncate_p: float = 0.0

    @property
    def active(self) -> bool:
        """Whether any packet fault would ever fire."""
        return self.corrupt_p > 0.0 or self.truncate_p > 0.0

    def apply(
        self, raws: list[bytes], round_index: int = 1
    ) -> tuple[list[bytes], int, int]:
        """Corrupt/truncate recovered packet buffers for one round.

        Returns ``(buffers, n_corrupted, n_truncated)``.  Corruption
        flips a handful of bytes (the CRCs catch it downstream);
        truncation cuts the buffer short of its declared payload.
        """
        if not self.active:
            return list(raws), 0, 0
        out: list[bytes] = []
        corrupted = truncated = 0
        for position, raw in enumerate(raws):
            rng = spawn_rng(self.seed, _KEY_PACKET, round_index, position)
            buf = bytearray(raw)
            if self.truncate_p > 0.0 and rng.random() < self.truncate_p and len(buf) > 4:
                buf = buf[: int(rng.integers(1, len(buf)))]
                truncated += 1
            elif self.corrupt_p > 0.0 and rng.random() < self.corrupt_p and buf:
                n_flips = max(1, int(rng.integers(1, 4)))
                for _ in range(n_flips):
                    at = int(rng.integers(0, len(buf)))
                    buf[at] ^= int(rng.integers(1, 256))
                corrupted += 1
            out.append(bytes(buf))
        return out, corrupted, truncated
