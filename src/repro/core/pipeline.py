"""End-to-end API: sender, receiver, and the one-call link runners.

:class:`InFrameSender` wires a video source and a data schedule into a
playable display timeline; :class:`InFrameReceiver` is the receive chain
link runs and fleet receivers share; :func:`run_link` runs the whole
loop -- multiplex, display, capture, decode, score -- and returns
Figure-7 style statistics.  :func:`run_transport_link` layers
:mod:`repro.transport` on top: the payload travels as self-describing
packets (plain sequential, rateless fountain, NACK-driven ARQ, or a
broadcast carousel), and the receiver bootstraps from packet headers
alone -- no out-of-band :class:`FramingPlan`.  This is the surface the
examples, tools and benchmarks use.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace as dataclass_replace
from typing import TYPE_CHECKING

import numpy as np

from repro.camera.capture import CameraModel, CapturedFrame, CaptureNoise, TimelineLike
from repro.core.config import InFrameConfig
from repro.core.decoder import (
    BlockObservation,
    DecodedDataFrame,
    InFrameDecoder,
    record_decode_telemetry,
    record_healing_telemetry,
    record_observation_telemetry,
)
from repro.core.framing import (
    FramingPlan,
    PayloadAssembler,
    PayloadSchedule,
    PseudoRandomSchedule,
)
from repro.core.geometry import FrameGeometry
from repro.core.metrics import LinkStats, summarize_link
from repro.core.multiplexer import DataFrameSchedule, MultiplexedStream
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.obs import RunTelemetry, SpanTracer, Telemetry, stage_totals
from repro.obs.live import live_collector
from repro.obs.metrics import WORK
from repro.runtime.link_exec import execute_link_captures
from repro.runtime.profiler import LINK_STAGES, RuntimeReport
from repro.runtime.scheduler import spawn_rng
from repro.video.source import VideoSource

if TYPE_CHECKING:  # imported lazily at run time to keep layering acyclic
    from repro.core.decoder import HealingReport
    from repro.faults.inject import FaultInjectedCamera
    from repro.faults.plan import CompiledFaults, FaultPlan
    from repro.faults.report import DegradationReport, InjectionLog


def matched_panel(
    config: InFrameConfig, video: VideoSource, panel: DisplayPanel | None = None
) -> DisplayPanel:
    """*panel*, or by default a panel of the video's size at ``config.refresh_hz``.

    Raises ValueError when *panel* differs from the video in size or from
    the config in refresh rate.
    """
    if panel is None:
        return DisplayPanel(
            width=video.width, height=video.height, refresh_hz=config.refresh_hz
        )
    if (panel.height, panel.width) != (video.height, video.width):
        raise ValueError(
            f"panel {panel.height}x{panel.width} does not match video "
            f"{video.height}x{video.width}"
        )
    if abs(panel.refresh_hz - config.refresh_hz) > 1e-9:
        raise ValueError(
            f"panel refresh {panel.refresh_hz} does not match config "
            f"refresh_hz {config.refresh_hz}"
        )
    return panel


class InFrameSender:
    """Sender: multiplexes a data schedule onto a video for a given panel.

    Parameters
    ----------
    config:
        InFrame parameters; ``refresh_hz``/``video_fps`` must match the
        panel and video.
    video:
        The primary content (its shape must equal the panel's).
    schedule:
        Data supplier; defaults to the paper's pseudo-random generator.
    panel:
        The display; defaults to a panel of the video's size at
        ``config.refresh_hz`` (see :func:`matched_panel`).
    """

    def __init__(
        self,
        config: InFrameConfig,
        video: VideoSource,
        schedule: DataFrameSchedule | None = None,
        panel: DisplayPanel | None = None,
    ) -> None:
        self.config = config
        self.video = video
        self.panel = matched_panel(config, video, panel)
        self.schedule = schedule if schedule is not None else PseudoRandomSchedule(config)
        self.stream = MultiplexedStream(
            config, video, self.schedule, gamma_curve=self.panel.gamma_curve
        )

    @property
    def geometry(self) -> FrameGeometry:
        """The Block-grid placement on this panel."""
        return self.stream.geometry

    def timeline(self) -> DisplayTimeline:
        """The emitted-light timeline of the multiplexed playback."""
        return DisplayTimeline(self.panel, self.stream)

    def plan(self) -> FramingPlan | None:
        """The framing plan, when the schedule carries a payload."""
        if isinstance(self.schedule, PayloadSchedule):
            return self.schedule.plan
        return None


def _await_noise(drawn: Future[CaptureNoise]) -> CaptureNoise:
    """Wait for a capture's noise draws.

    A named frame of its own, so the sampling profiler buckets this wait
    as ``render``, the span it runs in.
    """
    return drawn.result()


@dataclass(frozen=True)
class Reception:
    """A stream as :meth:`InFrameReceiver.decide` left it (captures after stream faults)."""

    decoded: list[DecodedDataFrame]
    captures: list[CapturedFrame]
    healing: HealingReport | None
    injected: InjectionLog | None


class InFrameReceiver:
    """Receiver: films, decodes and (optionally) reassembles payloads.

    :meth:`capture` and :meth:`decide` are the one receive chain.  A link
    run calls :meth:`capture` once per chunk of its capture range and
    :meth:`decide` once; a fleet receiver calls each once.
    """

    def __init__(
        self,
        config: InFrameConfig,
        geometry: FrameGeometry,
        camera: CameraModel,
        plan: FramingPlan | None = None,
    ) -> None:
        self.config = config
        self.camera = camera
        self.decoder = InFrameDecoder(
            config,
            geometry,
            camera.height,
            camera.width,
            screen_rect=camera.screen_rect() if camera.screen_fill < 1.0 else None,
            view=camera.view,
        )
        self.plan = plan

    def compile_faults(
        self, faults: FaultPlan | None, n_captures: int, duration_s: float, origin_s: float = 0.0
    ) -> CompiledFaults | None:
        """*faults* compiled for this camera's captures; None without a plan.

        See :meth:`~repro.faults.FaultPlan.compile`: the ``at`` fractions
        span *duration_s* from the first capture at *origin_s*.
        """
        if faults is None:
            return None
        return faults.compile(
            n_captures, self.camera.fps, duration_s, self.config.refresh_hz, origin_s
        )

    def capture(  # checks: worker-scope
        self,
        timeline: TimelineLike,
        indices: Iterable[int],
        seed: int,
        key: tuple[int, ...],
        tracer: SpanTracer,
        *,
        faults: CompiledFaults | None = None,
        keep: bool = True,
        telemetry: Telemetry | None = None,
    ) -> tuple[list[CapturedFrame], list[BlockObservation]]:
        """Film and observe camera frames *indices* of *timeline*.

        Frame ``i`` draws its noise from ``spawn_rng(seed, *key, i)`` and
        runs in a ``render`` and an ``observe`` span on *tracer*;
        *telemetry*, when given, also takes its Block noise evidence.  The
        camera films through *faults*' clock and pixel faults.  The
        captures come back when *keep* is set or a stream fault needs
        them, and as an empty list otherwise.

        The draws need only the generator and the capture shape, so frame
        ``i + 1``'s are made on a second thread while frame ``i`` renders
        and is observed; the wait for a frame's draws is part of its
        ``render`` span.  That thread holds one frame's planes ahead and
        ends with the call.
        """
        source: CameraModel | FaultInjectedCamera = self.camera
        if faults is not None and faults.perturbs_captures:
            from repro.faults import inject

            source = inject.FaultInjectedCamera(self.camera, faults)
        keep = keep or (faults is not None and faults.perturbs_stream)

        def draw(i: int) -> CaptureNoise:
            return self.camera.draw_noise(spawn_rng(seed, *key, i))

        order = list(indices)
        captures: list[CapturedFrame] = []
        observations: list[BlockObservation] = []
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="capture-noise") as drawer:
            ahead = [drawer.submit(draw, i) for i in order[:1]]
            for n, i in enumerate(order):
                with tracer.span("render", capture=i):
                    # Queue the next frame's draws, then take this frame's;
                    # they are dropped as soon as the frame is exposed.
                    ahead.extend(drawer.submit(draw, j) for j in order[n + 1 : n + 2])
                    capture = source.capture_frame(
                        timeline, i, noise=_await_noise(ahead.pop(0))
                    )
                with tracer.span("observe", capture=i):
                    observation = self.decoder.observe(capture)
                if telemetry is not None:
                    record_observation_telemetry(observation, telemetry)
                if keep:
                    captures.append(capture)
                observations.append(observation)
        return captures, observations

    def decide(  # checks: worker-scope
        self,
        captures: list[CapturedFrame],
        observations: list[BlockObservation],
        tracer: SpanTracer,
        *,
        faults: CompiledFaults | None = None,
        heal: bool = False,
    ) -> Reception:
        """Decide data frames from the observations :meth:`capture` made.

        *faults*' stream faults (drop, duplicate, reorder) first act on
        the kept captures; :meth:`capture` keeps them whenever a stream
        fault is active.  The decision runs in a ``decide`` span on
        *tracer*, through the self-healing decoder when *heal* is set.
        """
        injected: InjectionLog | None = None
        if faults is not None and captures:
            from repro.faults import inject

            captures, observations, injected = inject.apply_stream_faults(
                faults, captures, observations
            )
        healing: HealingReport | None = None
        with tracer.span("decide"):
            if heal:
                decoded, healing = self.decoder.decide_observations_healed(observations)
            else:
                decoded = self.decoder.decide_observations(observations)
        return Reception(decoded, captures, healing, injected)

    def assemble_payload(self, decoded: list[DecodedDataFrame]) -> bytes:
        """Reassemble the payload carried by the decoded frames.

        Requires the sender's :class:`FramingPlan` (constructor argument).
        """
        if self.plan is None:
            raise ValueError("receiver was built without a framing plan")
        assembler = PayloadAssembler(self.config, self.plan)
        for frame in decoded:
            assembler.add_frame(frame)
        return assembler.payload()


@dataclass(frozen=True)
class LinkRun:
    """Everything produced by one end-to-end link simulation."""

    stats: LinkStats
    decoded: list[DecodedDataFrame]
    truths: list[np.ndarray]
    captures: list[CapturedFrame]
    sender: InFrameSender
    receiver: InFrameReceiver
    runtime: RuntimeReport | None = None
    degradation: DegradationReport | None = None
    telemetry: RunTelemetry | None = None


#: Leading data frames :func:`run_link` leaves out of scoring.
_WARMUP_DATA_FRAMES = 1


def run_link(
    config: InFrameConfig,
    video: VideoSource,
    camera: CameraModel | None = None,
    schedule: DataFrameSchedule | None = None,
    panel: DisplayPanel | None = None,
    n_camera_frames: int | None = None,
    seed: int = 0,
    workers: int | None = None,
    faults: FaultPlan | None = None,
    heal: bool | None = None,
    collect_telemetry: bool = True,
) -> LinkRun:
    """Run the full screen->camera loop and score it against ground truth.

    Parameters
    ----------
    config, video, camera, schedule, panel:
        The link's components; camera defaults to the paper's 1280x720
        30 FPS receiver auto-exposed for the panel.
    n_camera_frames:
        Captures to take; defaults to everything the stream duration
        allows.
    seed:
        Seed of the run's noise streams.  Each capture draws from its own
        spawn-keyed generator (``SeedSequence(seed, spawn_key=(index,))``),
        which is what makes parallel execution bit-identical to serial.
    workers:
        Worker processes for the capture+observe stages.  ``None``/``1``
        runs in-process; ``N > 1`` dispatches chunks to a process pool
        via :mod:`repro.runtime` (same results, bit for bit).  The
        engine falls back to in-process execution when a pool cannot be
        built or keeps crashing.  Either way ``LinkRun.runtime`` carries
        the per-stage profile.
    faults:
        A :class:`~repro.faults.FaultPlan` to inject deterministically
        into this run (compiled here against the run's capture count and
        duration).  ``LinkRun.degradation`` then records what landed.
    heal:
        Whether to decode with the self-healing receiver
        (:meth:`~repro.core.decoder.InFrameDecoder.decide_observations_healed`).
        ``None`` (default) enables healing exactly when a fault plan is
        given; pass False to measure the unhealed baseline under faults.
    collect_telemetry:
        Collect :mod:`repro.obs` metrics and spans for this run into
        ``LinkRun.telemetry``.  Work-scoped telemetry is bit-identical
        across worker counts.  Pass False to skip the metrics and leave
        ``LinkRun.telemetry`` as None; the stage spans behind
        ``LinkRun.runtime`` are recorded either way, so the overhead
        ``benchmarks/bench_runtime.py`` measures with this toggle is
        that of the metrics and live telemetry, not of the spans.
    """
    wall0 = time.perf_counter()
    sender = InFrameSender(config, video, schedule=schedule, panel=panel)
    timeline = sender.timeline()
    if camera is None:
        camera = CameraModel().auto_exposed(sender.panel.peak_luminance)
    receiver = InFrameReceiver(config, sender.geometry, camera, plan=sender.plan())
    max_frames = camera.frames_covering(timeline)
    if max_frames < 1:
        raise ValueError("stream too short for even one camera frame")
    if n_camera_frames is None:
        n_camera_frames = max_frames
    n_camera_frames = min(n_camera_frames, max_frames)
    compiled = receiver.compile_faults(faults, n_camera_frames, video.duration_s)
    telemetry = Telemetry(track="main")
    live = live_collector()
    if collect_telemetry and live is not None:
        # The installed LiveCollector samples this run's registry at its
        # snapshot cadence (read-only: the exact-merge contract holds).
        live.attach(telemetry.metrics, prefix="link.")
    execution = execute_link_captures(
        timeline, receiver, n_camera_frames, seed, telemetry,
        workers=workers, faults=compiled, collect_telemetry=collect_telemetry,
    )
    heal_on = heal if heal is not None else compiled is not None
    reception = receiver.decide(
        execution.captures, execution.observations, telemetry.tracer,
        faults=compiled, heal=heal_on,
    )
    captures = reception.captures
    # Score only fully covered data frames: drop the warmup frames, whose
    # cycles the captures only partly cover, and the tail frame whose cycle
    # the capture window may have clipped.
    last_complete = int(
        np.floor(captures[-1].mid_exposure_s * config.refresh_hz / config.tau)
    )
    decoded = [
        d for d in reception.decoded if _WARMUP_DATA_FRAMES <= d.index < last_complete
    ]
    if not decoded:
        raise ValueError("no fully covered data frames; lengthen the video")
    with telemetry.tracer.span("score"):
        truths = [sender.stream.ground_truth(d.index) for d in decoded]
        stats = summarize_link(truths, decoded, config)
    exec_stats = execution.stats
    run_telemetry: RunTelemetry | None = None
    if collect_telemetry:
        record_decode_telemetry(reception.decoded, telemetry)
        if reception.healing is not None:
            record_healing_telemetry(reception.healing, telemetry)
        if reception.injected is not None:
            from repro.faults.report import record_injection_telemetry

            record_injection_telemetry(reception.injected, telemetry)
        run_telemetry = telemetry.finish(
            meta={
                "run": "link",
                "seed": seed,
                "frames": len(captures),
                "workers": exec_stats.workers,
                "mode": exec_stats.mode,
            }
        )
    report = RuntimeReport(
        mode=exec_stats.mode,
        workers=exec_stats.workers,
        chunks=execution.chunks,
        frames=len(captures),
        bits=stats.n_data_frames * config.bits_per_frame,
        elapsed_s=time.perf_counter() - wall0,
        retries=exec_stats.retries,
        stages=stage_totals(s for s in telemetry.tracer.records if s.name in LINK_STAGES),
        crashed_chunks=tuple(exec_stats.crashed_items),
        serial_fallback=exec_stats.mode == "serial-fallback",
    )
    degradation: DegradationReport | None = None
    if compiled is not None or heal_on:
        from repro.faults.report import DegradationReport as _DegradationReport

        degradation = _DegradationReport(
            injected=reception.injected, healing=reception.healing
        )
    return LinkRun(
        stats=stats,
        decoded=decoded,
        truths=truths,
        captures=captures,
        sender=sender,
        receiver=receiver,
        runtime=report,
        degradation=degradation,
        telemetry=run_telemetry,
    )


# ----------------------------------------------------------------------
# Transport layer on top of the PHY
# ----------------------------------------------------------------------
_TRANSPORT_MODES = ("plain", "fountain", "arq", "carousel")

#: Bucket edges for the realized LT symbol-degree histogram.  Degrees are
#: small integers dominated by the robust-soliton spike at 1-2; fixed
#: edges keep per-round merges exact (see repro.obs.metrics).
_FOUNTAIN_DEGREE_EDGES = (2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 25.0, 50.0)


@dataclass(frozen=True)
class TransportStats:
    """Delivery accounting for one transport session over the PHY.

    ``packets_sent`` counts distinct transmission units the sender
    committed per round (the display may air a batch cyclically to fill
    the clip; duplicates are deduplicated by the receiver and not counted
    again).  ``overhead`` is ``packets_sent / k_packets`` -- 1.0 is the
    lossless floor.
    """

    mode: str
    delivered: bool
    payload_bytes: int
    k_packets: int
    packets_sent: int
    packets_recovered: int
    rounds: int
    overhead: float
    goodput_bps: float
    airtime_s: float

    def row(self) -> str:
        """One formatted summary line for the benchmark tables."""
        status = "ok" if self.delivered else "FAIL"
        return (
            f"{self.mode:8s} {status:4s} k={self.k_packets:3d} "
            f"sent={self.packets_sent:4d} ({self.overhead:4.2f}x) "
            f"rounds={self.rounds}  goodput={self.goodput_bps / 1000:5.2f} kbps"
        )


@dataclass(frozen=True)
class TransportRun:
    """Everything produced by one transport session."""

    payload: bytes | None
    stats: TransportStats
    link_stats: list[LinkStats]
    arq_stats: object | None = None  # ArqStats when mode == "arq"
    runtime: RuntimeReport | None = None  # merged over all forward passes
    degradation: DegradationReport | None = None  # set when faults/heal active
    telemetry: RunTelemetry | None = None  # transport + all rounds, merged


def run_transport_link(
    config: InFrameConfig,
    video: VideoSource,
    payload: bytes,
    mode: str = "fountain",
    *,
    camera: CameraModel | None = None,
    rs_n: int = 60,
    rs_k: int = 24,
    seed: int = 0,
    max_rounds: int = 6,
    extra_gob_loss: float = 0.0,
    feedback_loss: float = 0.0,
    join_offset: int = 0,
    workers: int | None = None,
    faults: FaultPlan | None = None,
    heal: bool | None = None,
    retry_budget: int | None = None,
    deadline_s: float | None = None,
    collect_telemetry: bool = True,
) -> TransportRun:
    """Deliver *payload* over the screen->camera PHY with a transport scheme.

    Each round multiplexes a batch of transport packets onto *video*
    (one packet per data frame, filled to the frame codec's capacity,
    inner RS(rs_n, rs_k) protection) on a panel matching the video, runs
    the full display->capture->decode loop, and feeds whatever packets
    survive to the mode's receiver.  The receiver never sees a
    :class:`~repro.core.framing.FramingPlan`: every parameter it needs
    travels in the packet headers, which carry session id 1.  Fountain
    and carousel rounds send
    :func:`~repro.transport.carousel.fountain_batch` packets.

    Parameters
    ----------
    mode:
        ``"plain"`` -- sequential DATA packets, single pass (the RS-only
        baseline); ``"fountain"`` -- rateless LT packets until decoded;
        ``"arq"`` -- NACK-driven selective retransmission over a
        simulated feedback channel; ``"carousel"`` -- fountain packets
        starting at ``join_offset``, modelling a receiver that joins an
        ongoing broadcast mid-stream.
    rs_n, rs_k:
        Inner Reed-Solomon code per frame.  The RS(60, 24) default holds
        up on textured content, where 2-bit GOB misreads slip past the
        XOR parity and the decoder must spend budget on *errors* as well
        as erasures (2e + f <= n - k per codeword).
    max_rounds:
        Bound on forward passes (each pass replays the clip once).
    extra_gob_loss:
        Additional bursty GOB erasures stacked on the PHY's own
        impairments (see :class:`repro.transport.GobLossModel`).
    feedback_loss:
        NACK loss probability for ARQ mode.
    join_offset:
        First carousel symbol the receiver observes.
    workers:
        Worker processes for every forward pass's capture+observe stages
        (see :func:`run_link`); the per-pass profiles are merged into
        ``TransportRun.runtime``.
    faults, heal:
        Fault injection and self-healing per forward pass (see
        :func:`run_link`).  Each round runs under
        :meth:`~repro.faults.FaultPlan.for_round`, so random fault
        processes re-draw per round while steps and blackout windows stay
        put; ``corrupt``/``truncate`` faults additionally damage the
        recovered packet buffers.  ``TransportRun.degradation`` then
        merges the per-round accounting with the delivery outcome.
    retry_budget, deadline_s:
        ARQ degradation bounds (see :class:`repro.transport.ArqSession`):
        a cap on retransmitted packets and a virtual-time deadline.  When
        either fires the session ends early and the partial delivery is
        reported instead of looped on.  Ignored by other modes.
    collect_telemetry:
        Collect :mod:`repro.obs` telemetry: each round's link telemetry
        is merged into one session record alongside ``transport.*``
        counters, ``transport.round`` spans, the realized LT degree
        histogram (fountain/carousel) and the ARQ accounting, exposed as
        ``TransportRun.telemetry``.
    """
    from repro.transport.arq import ArqReceiver, ArqSender, ArqSession
    from repro.transport.carousel import (
        BroadcastCarousel,
        CarouselReceiver,
        fountain_batch,
    )
    from repro.transport.erasures import GobLossModel
    from repro.transport.packet import (
        FramePacketCodec,
        PacketSchedule,
        PacketSlotAccumulator,
    )

    if mode not in _TRANSPORT_MODES:
        raise ValueError(f"mode must be one of {_TRANSPORT_MODES}, got {mode!r}")
    if not payload:
        raise ValueError("payload must not be empty")
    payload = bytes(payload)
    codec = FramePacketCodec(config, rs_n=rs_n, rs_k=rs_k)
    chunk = codec.max_payload_bytes
    k_packets = (len(payload) + chunk - 1) // chunk
    loss = GobLossModel(extra_gob_loss, burst=True) if extra_gob_loss else None
    loss_rng = np.random.default_rng((seed, 0xEA5E))
    link_stats: list[LinkStats] = []
    runtime_reports: list[RuntimeReport] = []
    link_degradations: list[DegradationReport | None] = []
    packet_faults = faults.packet_faults() if faults is not None else None
    counters = {
        "sent": 0,
        "recovered": 0,
        "rounds": 0,
        "corrupted": 0,
        "truncated": 0,
        "blackout_rounds": 0,
    }
    telemetry = Telemetry(track="transport") if collect_telemetry else None
    tracer = telemetry.tracer if telemetry is not None else SpanTracer(track="transport")
    live = live_collector()
    if telemetry is not None and live is not None:
        live.attach(telemetry.metrics, prefix="transport.")

    def forward(packets: list[bytes]) -> list[bytes]:
        """One PHY pass: multiplex the batch, film it, decode packets."""
        counters["rounds"] += 1
        counters["sent"] += len(packets)
        round_plan = (
            faults.for_round(counters["rounds"]) if faults is not None else None
        )
        schedule = PacketSchedule(config, codec, packets)
        with tracer.span("transport.round", round=counters["rounds"], packets=len(packets)):
            run = run_link(
                config,
                video,
                camera=camera,
                schedule=schedule,
                seed=seed + counters["rounds"],
                workers=workers,
                faults=round_plan,
                heal=heal,
                collect_telemetry=collect_telemetry,
            )
        if telemetry is not None:
            telemetry.merge_run(run.telemetry)
        link_stats.append(run.stats)
        link_degradations.append(run.degradation)
        if run.runtime is not None:
            runtime_reports.append(run.runtime)
        accumulator = PacketSlotAccumulator(codec, schedule.n_packets)
        for frame in run.decoded:
            if loss is not None:
                frame = loss.degrade(frame, loss_rng)
            accumulator.add_frame(frame)
        raws = accumulator.decode_packets()
        if packet_faults is not None and packet_faults.active:
            raws, n_corrupt, n_trunc = packet_faults.apply(raws, counters["rounds"])
            counters["corrupted"] += n_corrupt
            counters["truncated"] += n_trunc
        if (faults is not None or heal) and not raws:
            # A forward pass that recovered nothing: an occlusion span
            # (or equivalent) blacked the round out; the carousel and
            # ARQ loops simply resume on the next pass.
            counters["blackout_rounds"] += 1
        counters["recovered"] += len(raws)
        return raws

    delivered_payload: bytes | None = None
    arq_stats = None
    delivered_bytes = 0
    deadline_hit = False
    budget_exhausted = False

    if mode == "plain":
        sender = ArqSender(payload, chunk)
        receiver = ArqReceiver()
        for raw in forward(sender.all_packets()):
            receiver.receive(raw)
        delivered_bytes = receiver.received_bytes
        if receiver.complete:
            delivered_payload = receiver.payload()
    elif mode == "arq":
        session = ArqSession(
            payload,
            chunk,
            forward,
            feedback_loss=feedback_loss,
            packet_airtime_s=config.tau / config.refresh_hz,
            max_rounds=max_rounds,
            retry_budget=retry_budget,
            deadline_s=deadline_s,
            backoff_jitter=0.1 if faults is not None else 0.0,
            rng=np.random.default_rng((seed, 0xFEED)),
        )
        arq_stats, delivered_payload = session.run()
        delivered_bytes = arq_stats.delivered_bytes
        deadline_hit = arq_stats.deadline_hit
        budget_exhausted = arq_stats.budget_exhausted
        if telemetry is not None:
            from repro.transport.arq import record_arq_telemetry

            record_arq_telemetry(arq_stats, telemetry)
    else:  # fountain / carousel
        carousel = BroadcastCarousel(payload, chunk)
        receiver = CarouselReceiver()
        next_seq = join_offset if mode == "carousel" else 0
        for _ in range(max_rounds):
            missing = (
                carousel.k if receiver.decoder is None else receiver.decoder.n_missing
            )
            batch = fountain_batch(missing)
            if telemetry is not None:
                telemetry.metrics.histogram(
                    "fountain.degree", _FOUNTAIN_DEGREE_EDGES
                ).observe_array(carousel.symbol_degrees(next_seq, batch))
            for raw in forward(carousel.packets(next_seq, batch)):
                receiver.receive(raw)
            next_seq += batch
            if receiver.complete:
                break
        if telemetry is not None:
            telemetry.metrics.counter("transport.rejected_packets").inc(
                receiver.n_rejected
            )
            telemetry.metrics.counter("transport.symbols_consumed").inc(
                receiver.symbols_consumed
            )
            if receiver.join_offset is not None:
                telemetry.metrics.gauge("transport.join_offset", scope=WORK).set(
                    receiver.join_offset
                )
            if receiver.decoder is not None:
                telemetry.metrics.counter("fountain.redundant_symbols").inc(
                    receiver.decoder.n_redundant
                )
        if receiver.decoder is not None:
            delivered_bytes = min(
                len(payload), receiver.decoder.n_decoded * chunk
            )
        if receiver.complete:
            delivered_payload = receiver.payload()

    delivered = delivered_payload == payload
    if delivered:
        delivered_bytes = len(payload)
    airtime = counters["rounds"] * video.duration_s
    goodput = len(payload) * 8.0 / airtime if delivered and airtime > 0 else 0.0
    stats = TransportStats(
        mode=mode,
        delivered=delivered,
        payload_bytes=len(payload),
        k_packets=k_packets,
        packets_sent=counters["sent"],
        packets_recovered=counters["recovered"],
        rounds=counters["rounds"],
        overhead=counters["sent"] / k_packets,
        goodput_bps=goodput,
        airtime_s=airtime,
    )
    degradation: DegradationReport | None = None
    if faults is not None or heal:
        from repro.faults.report import DegradationReport as _DegradationReport
        from repro.faults.report import InjectionLog as _InjectionLog

        degradation = _DegradationReport.merge_link_reports(
            link_degradations,
            total_bytes=len(payload),
            delivered_bytes=delivered_bytes,
            partial=(not delivered) and delivered_bytes > 0,
            blackout_rounds=counters["blackout_rounds"],
            deadline_hit=deadline_hit,
            budget_exhausted=budget_exhausted,
        )
        if counters["corrupted"] or counters["truncated"]:
            injected = degradation.injected or _InjectionLog()
            degradation = dataclass_replace(
                degradation,
                injected=dataclass_replace(
                    injected,
                    corrupted_packets=counters["corrupted"],
                    truncated_packets=counters["truncated"],
                ),
            )
    run_telemetry: RunTelemetry | None = None
    if telemetry is not None:
        metrics = telemetry.metrics
        metrics.counter("transport.rounds").inc(counters["rounds"])
        metrics.counter("transport.packets_sent").inc(counters["sent"])
        metrics.counter("transport.packets_recovered").inc(counters["recovered"])
        metrics.counter("transport.corrupted_packets").inc(counters["corrupted"])
        metrics.counter("transport.truncated_packets").inc(counters["truncated"])
        metrics.counter("transport.blackout_rounds").inc(counters["blackout_rounds"])
        run_telemetry = telemetry.finish(
            meta={
                "run": "transport",
                "transport_mode": mode,
                "seed": seed,
                "delivered": delivered,
                "rounds": counters["rounds"],
            }
        )
    return TransportRun(
        payload=delivered_payload if delivered else None,
        stats=stats,
        link_stats=link_stats,
        arq_stats=arq_stats,
        runtime=RuntimeReport.merge(runtime_reports),
        degradation=degradation,
        telemetry=run_telemetry,
    )
