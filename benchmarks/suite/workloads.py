"""The four benchmark workloads: fixed work per repetition, seeded inputs.

Constructing a workload is its set-up (inputs, and for ``fleet`` the
one-cycle render of the broadcast session); :meth:`run` is one
repetition.  Every repetition of a workload does identical work with the
same seed, so outputs must repeat bit for bit and any spread in timings
is host noise.  The seed generates every random input: data bits, capture
noise and clock jitter, fault draws, the fleet payload and receiver
draws, and the simulated flicker panel.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro._util import stable_seed
from repro.analysis.experiments import ExperimentScale, flicker_timeline
from repro.analysis.userstudy import SimulatedPanel
from repro.core.framing import PseudoRandomSchedule
from repro.core.pipeline import InFrameSender, run_link
from repro.faults.plan import FaultPlan
from repro.serve import BroadcastSession, deterministic_payload, parse_cohorts, run_fleet

#: Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "link-gray": "Fig. 7 gray cell at bench scale: display emit and the capture chain split "
    "the time on constant content",
    "link-video-faults": "textured video with injected flips and drops: every frame differs "
    "and decode takes the self-healing path",
    "fleet": "render-once broadcast to 16 receivers: capture and decode dominate and "
    "display emit is a cache hit",
    "flicker": "Fig. 6 study: 25 stimuli sampled at 4x refresh and scored by the HVS model, "
    "with no camera",
}

#: Content frames of the link clips (the ``bench_runtime.py`` reference length).
LINK_FRAMES = 64
#: Faults injected into ``link-video-faults``.
LINK_FAULTS = "flip:at=0.5,frames=5;drop:p=0.1"
#: The fleet: ROADMAP's 256-receiver target scaled down to 16.
FLEET_COHORTS = (
    "near:n=12,join_spread=0.6,dwell=2.5|far:n=4,distance=1.3,join_spread=0.6,dwell=2.5"
)
#: Covers the latest join plus dwell in ``FLEET_COHORTS``, so set-up renders it all.
FLEET_HORIZON_S = 4.0
FLEET_PAYLOAD_BYTES = 64
#: Figure 6 stimuli as (figure half, delta, tau, base pixel value).
FLICKER_STIMULI = tuple(
    ("left", delta, 12, float(value))
    for delta in (20.0, 50.0)
    for value in (60, 80, 100, 120, 140, 160, 180, 200)
) + tuple(
    ("right", delta, tau, 127.0) for delta in (20.0, 30.0, 50.0) for tau in (10, 12, 14)
)
FLICKER_DURATION_S = 0.5

#: ``op(name, op_id)`` opens a traced operation scope; untraced runs pass none.
OpScope = Callable[[str, str], AbstractContextManager[None]]


def _no_scope(_name: str, _op_id: str) -> AbstractContextManager[None]:
    return nullcontext()


@dataclass(frozen=True)
class Op:
    """One operation's outcome: its id, output digest, and invariant verdict."""

    id: str
    digest: str
    ok: bool


@dataclass(frozen=True)
class RepOutput:
    """What one repetition produced.

    ``frames`` counts the repetition's frames through the physics chain:
    camera captures rendered and decoded (link, fleet) or display fields
    sampled for the eye (flicker).  ``digest`` covers the whole output.
    ``quality`` holds the simulated results, which are exact.
    """

    frames: int
    ops: tuple[Op, ...]
    digest: str
    quality: dict[str, float]
    memo_hits: int = 0
    memo_misses: int = 0


def sha256(*parts: bytes) -> str:
    """Hex SHA-256 over the concatenated parts."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _json_bytes(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


class LinkWorkload:
    """``run_link`` at bench scale: 960x540 panel filmed at 640x360, delta 20, tau 12."""

    def __init__(
        self,
        seed: int,
        video: str = "gray",
        faults: str | None = None,
        scale: ExperimentScale | None = None,
        frames: int = LINK_FRAMES,
    ) -> None:
        scale = replace(scale or ExperimentScale.benchmark(), n_video_frames=frames)
        self.seed = seed
        self.config = scale.config(amplitude=20.0, tau=12)
        self.video = scale.video(video)
        self.camera = scale.camera()
        self.schedule = PseudoRandomSchedule(self.config, seed=seed)
        self.faults = FaultPlan.parse(faults, seed=seed) if faults else None
        timeline = InFrameSender(self.config, self.video, self.schedule).timeline()
        self.captures = self.camera.frames_covering(timeline)

    def run(self, op: OpScope = _no_scope) -> RepOutput:
        run = run_link(
            self.config,
            self.video,
            camera=self.camera,
            schedule=self.schedule,
            seed=self.seed,
            faults=self.faults,
            heal=self.faults is not None,
            collect_telemetry=False,
        )
        grid = (self.config.block_rows, self.config.block_cols)
        parts = []
        for frame in run.decoded:
            parts += [
                np.int64(frame.index).tobytes(),
                np.packbits(frame.bits).tobytes(),
                np.packbits(frame.gob_available).tobytes(),
                np.packbits(frame.gob_parity_ok).tobytes(),
            ]
        stats = run.stats
        quality = {
            "throughput_kbps": stats.throughput_bps / 1000.0,
            "gob_error_rate": stats.gob_error_rate,
            "available_gob_ratio": stats.available_gob_ratio,
        }
        ok = (
            all(frame.bits.shape == grid for frame in run.decoded)
            and 0.0 <= stats.gob_error_rate <= 1.0
            and 0.0 < stats.available_gob_ratio <= 1.0
        )
        digest = sha256(*parts)
        return RepOutput(
            frames=self.captures,
            ops=(Op("link", digest, ok),),
            digest=digest,
            quality=quality,
        )


class FleetWorkload:
    """A ``BroadcastSession`` at quick scale (480x270 panel) served to 16 receivers."""

    def __init__(
        self,
        seed: int,
        cohorts: str = FLEET_COHORTS,
        horizon_s: float = FLEET_HORIZON_S,
    ) -> None:
        scale = ExperimentScale.quick()
        self.seed = seed
        self.camera = scale.camera()
        self.cohorts = parse_cohorts(cohorts, seed=seed)
        # Serial in-process serving reads the render cache from a plain
        # dict; a zero shared-memory budget keeps /dev/shm out of it.
        self.session = BroadcastSession(
            scale.config(amplitude=20.0),
            scale.video("gray"),
            deterministic_payload(FLEET_PAYLOAD_BYTES, seed),
            session_id=1,
            shm_budget_bytes=0,
        )
        self.session.prepare(horizon_s)

    def run(self, op: OpScope = _no_scope) -> RepOutput:
        session = self.session
        hits0, misses0 = session.render_cache_hits, session.render_cache_misses
        fleet = run_fleet(session, self.cohorts, base_camera=self.camera, seed=self.seed)
        ops = tuple(
            Op(f"receiver-{r.receiver_id}", sha256(_json_bytes(r.as_dict())), r.delivered)
            for r in fleet.results
        )
        times = [r.time_to_deliver_s for r in fleet.results if r.time_to_deliver_s is not None]
        return RepOutput(
            frames=sum(r.n_captures for r in fleet.results),
            ops=ops,
            digest=sha256(fleet.report.work_json().encode()),
            quality={
                "delivery_rate": fleet.report.delivery_rate,
                "sim_deliver_s": sum(times) / len(times) if times else 0.0,
            },
            memo_hits=session.render_cache_hits - hits0,
            memo_misses=session.render_cache_misses - misses0,
        )


class FlickerWorkload:
    """Figure 6 left and right: each stimulus rated by an 8-subject simulated panel."""

    def __init__(
        self,
        seed: int,
        stimuli: tuple[tuple[str, float, int, float], ...] = FLICKER_STIMULI,
        duration_s: float = FLICKER_DURATION_S,
    ) -> None:
        self.stimuli = stimuli
        self.duration_s = duration_s
        self.panel = SimulatedPanel(seed=seed)

    @staticmethod
    def stimulus_id(stimulus: tuple[str, float, int, float]) -> str:
        half, delta, tau, value = stimulus
        return f"{half}-d{delta:g}-t{tau}-v{value:g}"

    def run(self, op: OpScope = _no_scope) -> RepOutput:
        oversample = self.panel.predictor.oversample
        ops = []
        means = []
        frames = 0
        for stimulus in self.stimuli:
            half, delta, tau, value = stimulus
            op_id = self.stimulus_id(stimulus)
            # The stimulus keys of repro.analysis.experiments.run_fig6_left/right.
            key = stable_seed(f"fig6-{half}", delta, value if half == "left" else tau)
            with op("stimulus", op_id):
                timeline = flicker_timeline(delta, tau, value)
                result = self.panel.study(timeline, self.duration_s, stimulus_seed=key)
            duration = min(self.duration_s, timeline.duration_s)
            frames += max(round(duration * timeline.panel.refresh_hz * oversample), 8)
            scores = [*result.scores, result.model_score]
            ok = all(0.0 <= score <= 4.0 for score in scores)
            ops.append(Op(op_id, sha256(_json_bytes(scores)), ok))
            means.append(result.mean_score)
        return RepOutput(
            frames=frames,
            ops=tuple(ops),
            digest=sha256(*(o.digest.encode() for o in ops)),
            quality={"flicker_score": sum(means) / len(means)},
        )


Workload = LinkWorkload | FleetWorkload | FlickerWorkload


def make_workload(name: str, seed: int) -> Workload:
    """Set up workload *name* at benchmark size."""
    if name == "link-gray":
        return LinkWorkload(seed)
    if name == "link-video-faults":
        return LinkWorkload(seed, video="video", faults=LINK_FAULTS)
    if name == "fleet":
        return FleetWorkload(seed)
    if name == "flicker":
        return FlickerWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
