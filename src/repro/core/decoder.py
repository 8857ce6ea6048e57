"""Demultiplexing and decoding (paper Section 3.3).

The receiver works on induced noise: the chessboard is, by construction,
high-spatial-frequency content the original video is unlikely to carry.
Per captured frame and per Block:

1. smooth the Block (3x3 box filter), subtract, take ``|difference|``;
2. the Block's noise level is the mean ``|difference|`` over its core;
3. remove the frame-level mean noise (texture correction, per the paper);
4. threshold at ``T``: above = bit 1, below = bit 0.

Captured frames are grouped by the data-frame cycle they observe and
aggregated with weights from the smoothing envelope (captures taken during
a transition carry less evidence).  A Block is *decoded* when its noise
level sits decisively away from the threshold; a GOB is *available* when
all of its Blocks are decoded, and *erroneous* when its XOR parity fails
(paper Section 4's accounting).

Decoder timing: experiments run with receiver-side knowledge of the
display clock (the paper's prototype decodes captured sequences offline
the same way).  :func:`estimate_cycle_phase` recovers the data-frame phase
blindly from capture noise energies for the synchronisation ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from repro._util import check_positive_int
from repro.camera.capture import CapturedFrame
from repro.camera.geometry import PerspectiveView
from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry
from repro.core.parity import decode_gob_grid
from repro.core.smoothing import SmoothingWaveform
from repro.obs import Telemetry


@dataclass(frozen=True)
class BlockObservation:
    """Noise evidence extracted from one captured frame.

    ``mid_exposure_s`` and ``level`` ride along so the self-healing
    decoder can re-assign an observation to a different data frame
    (pair-phase re-lock) and re-normalise its noise map (exposure-step
    correction) without touching the capture's pixels again.
    """

    data_frame_index: int
    weight: float
    contamination: float
    noise_map: np.ndarray
    capture_index: int
    mid_exposure_s: float = 0.0
    level: float = 0.0


@dataclass(frozen=True)
class DecodedDataFrame:
    """The receiver's verdict on one data frame.

    ``spread`` is the distance between the two noise clusters' means
    (the unit the confidence margin is measured in); 0.0 when the frame
    decoded degenerately with a single cluster.
    """

    index: int
    bits: np.ndarray
    confident: np.ndarray
    gob_available: np.ndarray
    gob_parity_ok: np.ndarray
    noise_map: np.ndarray
    threshold: float
    n_captures: int
    spread: float = 0.0

    @property
    def available_ratio(self) -> float:
        """Fraction of GOBs whose Blocks all decoded."""
        return float(np.mean(self.gob_available))

    @property
    def parity_error_ratio(self) -> float:
        """Fraction of *available* GOBs whose parity check fails."""
        available = int(np.sum(self.gob_available))
        if available == 0:
            return 0.0
        failures = int(np.sum(self.gob_available & ~self.gob_parity_ok))
        return failures / available


@dataclass(frozen=True)
class ResyncEvent:
    """One mid-stream pair-phase re-lock performed by the healed decoder."""

    capture_index: int
    time_s: float
    phase_before_s: float
    phase_after_s: float

    def as_dict(self) -> dict[str, float]:
        """JSON-ready form."""
        return {
            "capture_index": self.capture_index,
            "time_s": self.time_s,
            "phase_before_s": self.phase_before_s,
            "phase_after_s": self.phase_after_s,
        }


@dataclass(frozen=True)
class GainSegment:
    """A run of captures sharing one exposure/ambient regime.

    ``gain`` is the segment's mean pixel level relative to the dominant
    segment; segments darker than the blackout cutoff are excluded from
    decoding evidence entirely (an occluded camera sees no chessboard).
    """

    start_capture: int
    n_captures: int
    level: float
    gain: float
    blackout: bool

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {
            "start_capture": self.start_capture,
            "n_captures": self.n_captures,
            "level": self.level,
            "gain": self.gain,
            "blackout": self.blackout,
        }


@dataclass(frozen=True)
class HealingReport:
    """What the self-healing decode pass observed and repaired."""

    enabled: bool = True
    windows: int = 0
    relock_attempts: int = 0
    resyncs: tuple[ResyncEvent, ...] = ()
    segments: tuple[GainSegment, ...] = ()
    excluded_captures: int = 0

    @property
    def n_resyncs(self) -> int:
        """Number of adopted phase re-locks."""
        return len(self.resyncs)

    def time_to_resync_s(self, onset_s: float) -> float | None:
        """Seconds from a fault onset to the first re-lock at/after it."""
        for event in self.resyncs:
            if event.time_s >= onset_s:
                return event.time_s - onset_s
        return None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {
            "enabled": self.enabled,
            "windows": self.windows,
            "relock_attempts": self.relock_attempts,
            "resyncs": [event.as_dict() for event in self.resyncs],
            "segments": [segment.as_dict() for segment in self.segments],
            "excluded_captures": self.excluded_captures,
        }

    def summary(self) -> str:
        """One-line human-readable form."""
        return (
            f"healing: windows={self.windows} "
            f"relocks={len(self.resyncs)}/{self.relock_attempts} "
            f"segments={len(self.segments)} excluded={self.excluded_captures}"
        )

    @staticmethod
    def merge(reports: "list[HealingReport]") -> "HealingReport | None":
        """Fold several rounds' reports into one (None when empty)."""
        if not reports:
            return None
        return HealingReport(
            enabled=any(r.enabled for r in reports),
            windows=sum(r.windows for r in reports),
            relock_attempts=sum(r.relock_attempts for r in reports),
            resyncs=tuple(e for r in reports for e in r.resyncs),
            segments=tuple(s for r in reports for s in r.segments),
            excluded_captures=sum(r.excluded_captures for r in reports),
        )


# Tuning of the self-healing decode
# (:meth:`InFrameDecoder.decide_observations_healed`).
#: Phase-tracking window length, in data-frame cycles.
_HEAL_WINDOW_DATA_FRAMES = 3
#: A window scoring below this fraction of the running baseline re-locks.
_HEAL_RELOCK_TRIGGER = 0.85
#: A window scoring below this outright re-locks.
_HEAL_SCORE_FLOOR = 0.2
#: Relative jump of mean capture level that starts a new gain segment.
_HEAL_GAIN_STEP = 0.12
#: Segments darker than this fraction of the reference level are occluded.
_HEAL_BLACKOUT_GAIN = 0.35
#: Most phase re-locks one pass adopts.
_HEAL_MAX_RESYNCS = 8


class InFrameDecoder:
    """Recovers data frames from camera captures.

    Parameters
    ----------
    config:
        The sender's InFrame configuration (the receiver shares it, like a
        channel profile).
    geometry:
        The sender-side frame geometry.
    camera_height, camera_width:
        Capture resolution, for the Block label map.
    inset:
        Fraction of each Block edge excluded from its noise statistic.
    aggregation:
        How evidence from the several captures of one data-frame cycle is
        combined.  ``"max"`` (default) takes each Block's strongest noise
        reading, which recovers Blocks that a rolling-shutter band
        cancelled in *some* captures; ``"mean"`` is the stability-weighted
        average (kept for the aggregation ablation).
    clock_phase_s:
        Offset between the captures' timestamps and the display's
        data-frame clock (see :meth:`synchronized` for estimating it).
    screen_rect:
        Where the display sits in the capture when the camera is further
        away than the paper's 50 cm setup (``CameraModel.screen_rect()``).
    view:
        Optional :class:`~repro.camera.geometry.PerspectiveView` for
        off-axis capture; the Block label map is built by warping the
        display-space map through the view's homography.
    """

    def __init__(
        self,
        config: InFrameConfig,
        geometry: FrameGeometry,
        camera_height: int,
        camera_width: int,
        inset: float = 0.2,
        aggregation: str = "max",
        clock_phase_s: float = 0.0,
        screen_rect: tuple[int, int, int, int] | None = None,
        view: PerspectiveView | None = None,
    ) -> None:
        if aggregation not in ("max", "mean"):
            raise ValueError(f"aggregation must be 'max' or 'mean', got {aggregation!r}")
        self.aggregation = aggregation
        self.clock_phase_s = float(clock_phase_s)
        check_positive_int(camera_height, "camera_height")
        check_positive_int(camera_width, "camera_width")
        self.config = config
        self.geometry = geometry
        self.camera_height = int(camera_height)
        self.camera_width = int(camera_width)
        self.inset = float(inset)
        self.screen_rect = screen_rect
        self.view = view
        self.waveform = SmoothingWaveform(config.tau, config.waveform)
        if view is not None:
            from repro.camera.geometry import warp_labels

            display_labels = geometry.display_block_index_map(inset)
            h_matrix = view.homography(geometry.frame_height, geometry.frame_width)
            labels = warp_labels(display_labels, h_matrix, (camera_height, camera_width))
        else:
            labels = geometry.camera_block_index_maps(
                camera_height, camera_width, inset, screen_rect
            )
        # Flat indices of the pixels inside some Block core, row-major,
        # and their Block labels: the gather every capture repeats.
        self._valid_index = np.flatnonzero(labels >= 0)
        self._valid_labels = labels.ravel()[self._valid_index]
        n_blocks = config.block_rows * config.block_cols
        self._counts = np.bincount(self._valid_labels, minlength=n_blocks).astype(np.float64)
        if np.any(self._counts == 0):
            raise ValueError(
                "some Blocks map to zero camera pixels; the capture resolution "
                "is too low for this Block grid"
            )

    # ------------------------------------------------------------------
    # Per-capture processing
    # ------------------------------------------------------------------
    def block_noise_map(self, pixels: np.ndarray) -> np.ndarray:
        """Texture-corrected induced-noise level of every Block.

        Returns a ``(block_rows, block_cols)`` float map: mean
        ``|pixels - smooth(pixels)|`` over each Block core, minus the
        frame-level mean (the paper's high-texture correction).
        """
        img = np.asarray(pixels, dtype=np.float32)
        if img.shape != (self.camera_height, self.camera_width):
            raise ValueError(
                f"capture shape {img.shape} does not match decoder "
                f"({self.camera_height}, {self.camera_width})"
            )
        smooth = ndimage.uniform_filter(img, size=3, mode="nearest")
        diff = np.abs(img - smooth)
        sums = np.bincount(
            self._valid_labels,
            weights=diff.take(self._valid_index).astype(np.float64),
            minlength=self._counts.size,
        )
        noise = (sums / self._counts).reshape(
            self.config.block_rows, self.config.block_cols
        )
        return (noise - noise.mean()).astype(np.float64)

    def assign(
        self, mid_exposure_s: float, extra_phase_s: float = 0.0
    ) -> tuple[int, float, float]:
        """Map a mid-exposure time to ``(data_index, weight, contamination)``.

        ``extra_phase_s`` is an additional clock correction on top of
        ``clock_phase_s``; the self-healing pass uses it to re-assign
        stored observations under candidate phases without reprocessing
        any pixels.
        """
        local_time = mid_exposure_s - self.clock_phase_s - extra_phase_s
        display_index = int(np.floor(local_time * self.config.refresh_hz))
        display_index = max(display_index, 0)
        data_index, step = divmod(display_index, self.config.tau)
        current_factor, next_factor = self.waveform.factors(step)
        if next_factor > current_factor:
            return data_index + 1, float(next_factor**2), float(current_factor)
        return data_index, float(current_factor**2), float(next_factor)

    def observe(self, capture: CapturedFrame) -> BlockObservation:
        """Extract evidence from one capture: noise map + cycle weighting.

        A capture taken early in a cycle is clean evidence for the cycle's
        own data frame.  Deep into the transition half the *incoming* data
        frame's pattern dominates (Omega_01 near 1, Omega_10 near 0), so
        such captures are assigned to the next data frame instead -- this
        buys the aggregator roughly one extra usable capture per cycle.
        """
        data_index, weight, contamination = self.assign(capture.mid_exposure_s)
        return BlockObservation(
            data_frame_index=data_index,
            weight=weight,
            contamination=contamination,
            noise_map=self.block_noise_map(capture.pixels),
            capture_index=capture.index,
            mid_exposure_s=float(capture.mid_exposure_s),
            level=float(np.asarray(capture.pixels, dtype=np.float64).mean()),
        )

    def synchronized(self, captures: list[CapturedFrame]) -> "InFrameDecoder":
        """A copy whose data-frame clock is estimated blindly from *captures*.

        When the receiver's timestamps are not on the display's clock (no
        shared reference), :func:`estimate_cycle_phase` recovers the cycle
        phase from the capture noise energies and this decoder variant
        groups captures accordingly.
        """
        phase = estimate_cycle_phase(captures, self)
        return InFrameDecoder(
            self.config,
            self.geometry,
            self.camera_height,
            self.camera_width,
            inset=self.inset,
            aggregation=self.aggregation,
            clock_phase_s=self.clock_phase_s + phase,
            screen_rect=self.screen_rect,
            view=self.view,
        )

    # ------------------------------------------------------------------
    # Aggregation and decision
    # ------------------------------------------------------------------
    def decode(self, captures: list[CapturedFrame]) -> list[DecodedDataFrame]:
        """Decode a capture sequence into per-data-frame verdicts.

        Data frames observed by no capture (or only by zero-weight
        transition captures) are skipped.
        """
        return self.decide_observations([self.observe(c) for c in captures])

    def decide_observations(
        self, observations: list[BlockObservation]
    ) -> list[DecodedDataFrame]:
        """Aggregate pre-extracted observations into data-frame verdicts.

        The per-capture :meth:`observe` stage is the expensive half of
        decoding and is embarrassingly parallel; ``repro.runtime``
        computes observations on worker processes and feeds them here,
        while :meth:`decode` is the serial observe-then-decide
        composition.  The verdicts depend only on the observation
        *values*, never on which process produced them.
        """
        grouped: dict[int, list[BlockObservation]] = {}
        for obs in observations:
            grouped.setdefault(obs.data_frame_index, []).append(obs)
        decoded = []
        for data_index in sorted(grouped):
            frame = self._decide(data_index, grouped[data_index])
            if frame is not None:
                decoded.append(frame)
        return decoded

    # ------------------------------------------------------------------
    # Self-healing decode (pair-phase tracking + gain segmentation)
    # ------------------------------------------------------------------
    def decode_healed(
        self, captures: list[CapturedFrame]
    ) -> tuple[list[DecodedDataFrame], HealingReport]:
        """Observe-then-heal composition of :meth:`decide_observations_healed`."""
        return self.decide_observations_healed([self.observe(c) for c in captures])

    def decide_observations_healed(
        self, observations: list[BlockObservation]
    ) -> tuple[list[DecodedDataFrame], HealingReport]:
        """Decode with continuous pair-phase tracking and gain re-estimation.

        The plain :meth:`decide_observations` trusts capture timestamps and
        a fixed exposure: one camera-clock slip mid-stream misassigns every
        later capture and corrupts the rest of the transmission.  This pass
        is the self-healing variant:

        1. **Gain segmentation.**  Captures are split into segments at
           >``_HEAL_GAIN_STEP`` jumps of mean pixel level (exposure or
           ambient steps).  Each segment's noise maps are re-normalised to
           the dominant segment's level so per-frame thresholds stay
           bimodal across a step; segments darker than
           ``_HEAL_BLACKOUT_GAIN`` of the reference (occlusions) are
           dropped from evidence entirely.
        2. **Windowed phase tracking.**  The stream is walked in windows of
           ``_HEAL_WINDOW_DATA_FRAMES`` cycles.  Each window is scored by
           decode quality (mean fraction of GOBs available *and*
           parity-clean).  A score collapse below ``_HEAL_RELOCK_TRIGGER``
           of the running baseline (or below ``_HEAL_SCORE_FLOOR``
           outright) marks desynchronisation; the pass then re-locks by
           scoring candidate phases -- every
           whole-display-frame slip within half a cycle, plus the blind
           energy estimate over the window (the sliding-window form of
           :func:`estimate_cycle_phase`) -- and adopts the best candidate
           if it clearly improves the window.
        3. **Re-assignment.**  Observations are re-assigned to data frames
           under their window's phase (noise maps are phase-independent, so
           healing never reprocesses pixels) and aggregated as usual.

        Returns the decoded frames plus a :class:`HealingReport` recording
        every segment, re-lock attempt and adopted resync.
        """
        obs = sorted(observations, key=lambda o: (o.mid_exposure_s, o.capture_index))
        if not obs:
            return [], HealingReport()

        # --- 1. gain segmentation -------------------------------------
        levels = [o.level for o in obs]
        spans: list[tuple[int, int]] = []
        start = 0
        for i in range(1, len(obs)):
            ref = float(np.median(levels[start:i]))
            if ref > 1e-6 and abs(levels[i] / ref - 1.0) > _HEAL_GAIN_STEP:
                spans.append((start, i))
                start = i
        spans.append((start, len(obs)))
        largest = max(spans, key=lambda span: span[1] - span[0])
        ref_level = float(np.median(levels[largest[0] : largest[1]]))

        segments: list[GainSegment] = []
        active: list[BlockObservation] = []
        excluded = 0
        for s0, s1 in spans:
            med = float(np.median(levels[s0:s1]))
            gain = med / ref_level if ref_level > 1e-6 else 1.0
            blackout = gain < _HEAL_BLACKOUT_GAIN
            segments.append(
                GainSegment(
                    start_capture=obs[s0].capture_index,
                    n_captures=s1 - s0,
                    level=med,
                    gain=gain,
                    blackout=blackout,
                )
            )
            if blackout:
                excluded += s1 - s0
            elif abs(gain - 1.0) > 0.02:
                scale = 1.0 / gain
                active.extend(
                    replace(o, noise_map=o.noise_map * scale) for o in obs[s0:s1]
                )
            else:
                active.extend(obs[s0:s1])
        if not active:
            return [], HealingReport(
                segments=tuple(segments), excluded_captures=excluded
            )

        # --- 2. windowed phase tracking -------------------------------
        cycle_s = self.config.tau / self.config.refresh_hz
        slip_s = 1.0 / self.config.refresh_hz
        max_k = max(self.config.tau // 2, 1)
        # Candidate phases are absolute whole-display-frame offsets within
        # half a cycle (plus zero, so a spurious lock can release), never
        # offsets from the current phase: re-locks cannot walk the phase
        # beyond the model's slip bound by accumulating adoptions.
        slips = [k * slip_s for k in range(-max_k, max_k + 1)]
        window_s = _HEAL_WINDOW_DATA_FRAMES * cycle_s

        phases = [0.0] * len(active)
        resyncs: list[ResyncEvent] = []
        windows = 0
        attempts = 0
        baseline: float | None = None
        phase = 0.0
        refine = False
        pos = 0
        while pos < len(active):
            t0 = active[pos].mid_exposure_s
            end = pos
            while end < len(active) and active[end].mid_exposure_s < t0 + window_s:
                end += 1
            if end - pos < 3:
                end = min(len(active), pos + 3)
            win = active[pos:end]
            windows += 1
            score = self._phase_score(win, phase)
            triggered = (
                len(win) >= 3
                and len(resyncs) < _HEAL_MAX_RESYNCS
                and (
                    score < _HEAL_SCORE_FLOOR
                    or (baseline is not None and score < _HEAL_RELOCK_TRIGGER * baseline)
                )
            )
            # A re-lock adopted on an onset-straddling window is often a
            # compromise between the clean head and the slipped tail, so
            # the window right after an adoption gets one unconditional
            # refinement attempt with a light margin.
            refining = refine and not triggered and len(win) >= 3
            refine = False
            if triggered or refining:
                attempts += 1
                best_phase, best_score = phase, score
                candidates = [s for s in slips if s != phase]
                estimate = self._window_phase_estimate(win)
                if estimate is not None:
                    candidates.append(estimate)
                for cand in candidates:
                    cand_score = self._phase_score(win, cand)
                    if cand_score > best_score + 1e-9:
                        best_phase, best_score = cand, cand_score
                margin = (
                    max(score * 1.02, score + 0.02)
                    if refining
                    else max(score * 1.15, score + 0.08)
                )
                if best_phase != phase and best_score >= margin:
                    resyncs.append(
                        ResyncEvent(
                            capture_index=win[0].capture_index,
                            time_s=float(win[0].mid_exposure_s),
                            phase_before_s=phase,
                            phase_after_s=best_phase,
                        )
                    )
                    phase = best_phase
                    score = best_score
                    refine = triggered and len(resyncs) < _HEAL_MAX_RESYNCS
            baseline = score if baseline is None else 0.6 * baseline + 0.4 * score
            for k in range(pos, end):
                phases[k] = phase
            pos = end

        # --- 3. re-assignment and final decision ----------------------
        healed = [self._reassign(active[i], phases[i]) for i in range(len(active))]
        report = HealingReport(
            windows=windows,
            relock_attempts=attempts,
            resyncs=tuple(resyncs),
            segments=tuple(segments),
            excluded_captures=excluded,
        )
        return self.decide_observations(healed), report

    def _reassign(
        self, obs: BlockObservation, extra_phase_s: float
    ) -> BlockObservation:
        """The observation re-timed under an extra clock correction."""
        data_index, weight, contamination = self.assign(
            obs.mid_exposure_s, extra_phase_s
        )
        if (
            data_index == obs.data_frame_index
            and weight == obs.weight
            and contamination == obs.contamination
        ):
            return obs
        return replace(
            obs,
            data_frame_index=data_index,
            weight=weight,
            contamination=contamination,
        )

    def _phase_score(
        self, observations: list[BlockObservation], extra_phase_s: float
    ) -> float:
        """Decode quality of *observations* under a candidate phase.

        Per-capture-weighted fraction of GOBs that are both available and
        parity-clean -- the objective the re-lock search maximises.  Each
        decodable frame's fraction counts once per capture assigned to it
        and the denominator is the total capture count, so a candidate
        cannot inflate its score by pushing captures out of weak edge
        frames (captures stranded in undecodable frames score zero).
        """
        grouped: dict[int, list[BlockObservation]] = {}
        for obs in observations:
            moved = self._reassign(obs, extra_phase_s)
            grouped.setdefault(moved.data_frame_index, []).append(moved)
        total = 0.0
        for data_index in sorted(grouped):
            members = grouped[data_index]
            frame = self._decide(data_index, members)
            if frame is None:
                continue
            frac = float(np.mean(frame.gob_available & frame.gob_parity_ok))
            total += frac * len(members)
        return total / len(observations) if observations else 0.0

    def _window_phase_estimate(
        self, window: list[BlockObservation]
    ) -> float | None:
        """Blind energy-based phase candidate for one window, signed.

        The sliding-window form of :func:`estimate_cycle_phase`: noise
        energies come from the stored observation maps instead of fresh
        pixel processing.  The ``[0, cycle)`` estimate is mapped to the
        signed equivalent of smaller magnitude so re-locks preserve
        absolute data-frame indices for slips under half a cycle.
        """
        if len(window) < 3:
            return None
        times = np.array([o.mid_exposure_s - self.clock_phase_s for o in window])
        energies = np.array([float(np.abs(o.noise_map).mean()) for o in window])
        phi = phase_from_energies(times, energies, self.config)
        cycle_s = self.config.tau / self.config.refresh_hz
        if phi > cycle_s / 2.0:
            phi -= cycle_s
        return phi

    def _decide(
        self, data_index: int, observations: list[BlockObservation]
    ) -> DecodedDataFrame | None:
        total_weight = sum(obs.weight for obs in observations)
        if total_weight <= 1e-9:
            return None
        if self.aggregation == "max":
            # Use clean captures only: mid-transition the *other* data
            # frame's Blocks leak spurious noise into this frame's
            # 0-Blocks, and a max would keep every leak.  Fall back to the
            # cleanest capture when the cycle was only seen mid-transition.
            usable = [
                obs
                for obs in observations
                if obs.weight >= 0.8 and obs.contamination <= 0.12
            ]
            if not usable:
                usable = [min(observations, key=lambda obs: obs.contamination)]
            noise = np.maximum.reduce([obs.noise_map for obs in usable])
        else:
            noise = sum(obs.weight * obs.noise_map for obs in observations) / total_weight
        threshold, spread = self._threshold(noise)
        raw_bits = noise > threshold
        if spread <= 1e-9:
            confident = np.zeros_like(raw_bits, dtype=bool)
        else:
            confident = np.abs(noise - threshold) >= self.config.decision_margin * spread
        gob_available = self._gob_available(confident)
        bits, parity_ok, _ = decode_gob_grid(raw_bits, self.config)
        return DecodedDataFrame(
            index=data_index,
            bits=bits,
            confident=confident,
            gob_available=gob_available,
            gob_parity_ok=parity_ok,
            noise_map=noise,
            threshold=threshold,
            n_captures=len(observations),
            spread=spread,
        )

    def _threshold(self, noise: np.ndarray) -> tuple[float, float]:
        """Decision threshold and cluster spread for a noise map."""
        values = noise.ravel()
        if self.config.threshold is not None:
            threshold = float(self.config.threshold)
        else:
            threshold = two_means_threshold(values)
        ones = values[values > threshold]
        zeros = values[values <= threshold]
        if ones.size == 0 or zeros.size == 0:
            return threshold, 0.0
        spread = float(ones.mean() - zeros.mean())
        return threshold, max(spread, 0.0)

    def _gob_available(self, confident: np.ndarray) -> np.ndarray:
        """Per-GOB availability from the Block confidence mask.

        XOR GOBs need every Block decoded (the paper's rule).  Hamming
        GOBs tolerate one unconfident Block among the 8 coded ones -- the
        SECDED correction covers it -- and ignore the spare 9th Block.
        """
        m = self.config.gob_size
        tiled = confident.reshape(self.config.gob_rows, m, self.config.gob_cols, m)
        if self.config.gob_code == "hamming84":
            flat = tiled.transpose(0, 2, 1, 3).reshape(
                self.config.gob_rows, self.config.gob_cols, m * m
            )
            unconfident_coded = (~flat[:, :, :8]).sum(axis=2)
            return unconfident_coded <= 1
        return tiled.all(axis=(1, 3))


#: Lloyd iterations :func:`two_means_threshold` runs before giving up on
#: convergence.
_TWO_MEANS_MAX_ITERATIONS = 50


def two_means_threshold(values: np.ndarray) -> float:
    """Midpoint threshold from 1-D 2-means clustering.

    The default when ``config.threshold`` is None.  More stable than Otsu
    on the decoder's noise maps, whose two populations have very different
    variances (tight 0-cluster, band-smeared 1-cluster): Lloyd iterations
    converge to the cluster means and the cut sits at their midpoint.
    """
    samples = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = float(samples.min()), float(samples.max())
    if hi - lo < 1e-12:
        return lo
    center0, center1 = np.percentile(samples, [20.0, 80.0])
    if center1 - center0 < 1e-12:
        return float((lo + hi) / 2.0)
    for _ in range(_TWO_MEANS_MAX_ITERATIONS):
        cut = (center0 + center1) / 2.0
        low = samples[samples <= cut]
        high = samples[samples > cut]
        if low.size == 0 or high.size == 0:
            break
        new0, new1 = float(low.mean()), float(high.mean())
        if abs(new0 - center0) < 1e-9 and abs(new1 - center1) < 1e-9:
            center0, center1 = new0, new1
            break
        center0, center1 = new0, new1
    return float((center0 + center1) / 2.0)


def estimate_cycle_phase(
    captures: list[CapturedFrame],
    decoder: InFrameDecoder,
) -> float:
    """Blindly estimate the data-frame cycle phase from capture energies.

    The total |noise| of a capture dips while the envelope transitions
    (half the switching Blocks sit below full amplitude), so correlating
    capture noise energy against the cycle period recovers the phase
    without access to the display clock.  Returns the estimated phase
    offset in seconds, in ``[0, tau / refresh_hz)``.
    """
    if len(captures) < 3:
        raise ValueError("phase estimation needs at least 3 captures")
    times = np.array([c.mid_exposure_s for c in captures])
    energies = np.array(
        [float(np.abs(decoder.block_noise_map(c.pixels)).mean()) for c in captures]
    )
    return phase_from_energies(times, energies, decoder.config)


def phase_from_energies(
    times: np.ndarray, energies: np.ndarray, config: InFrameConfig
) -> float:
    """Cycle phase maximising stable/transition-half energy contrast.

    The scan core shared by :func:`estimate_cycle_phase` (fresh pixel
    energies over a whole run) and the healed decoder's sliding-window
    re-lock (stored observation energies).  Returns a phase in
    ``[0, tau / refresh_hz)``.
    """
    cycle_s = config.tau / config.refresh_hz
    centered = energies - energies.mean()
    phases = np.linspace(0.0, cycle_s, 48, endpoint=False)
    scores = np.empty_like(phases)
    for i, phi in enumerate(phases):
        # Captures landing in the stable half should carry the energy.
        steps = np.floor(((times - phi) % cycle_s) / cycle_s * config.tau).astype(int)
        stable = steps < config.tau // 2
        if stable.all() or not stable.any():
            scores[i] = 0.0
        else:
            scores[i] = centered[stable].mean() - centered[~stable].mean()
    return float(phases[int(np.argmax(scores))])


# ----------------------------------------------------------------------
# Decode diagnostics (paper Section 4's statistics as repro.obs metrics)
# ----------------------------------------------------------------------
#: Bucket edges for texture-corrected per-Block noise levels (pixel counts).
#: Fixed so worker-local histograms merge exactly (see repro.obs.metrics).
NOISE_LEVEL_EDGES = (-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
#: Bucket edges for |noise - threshold| / spread margins (spread units;
#: compare ``InFrameConfig.decision_margin``).
THRESHOLD_MARGIN_EDGES = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


def record_observation_telemetry(
    observation: BlockObservation, telemetry: Telemetry
) -> None:
    """Record one capture's per-Block noise evidence into *telemetry*.

    Called on the worker that extracted the observation; the histogram
    buckets ride back with the chunk result and merge exactly, so the
    aggregate is identical at any worker count.
    """
    metrics = telemetry.metrics
    metrics.counter("decode.observations").inc()
    metrics.histogram("decode.block_noise", NOISE_LEVEL_EDGES).observe_array(
        observation.noise_map
    )


def record_decode_telemetry(
    decoded: list[DecodedDataFrame], telemetry: Telemetry
) -> None:
    """Record the decided frames' Section-4 statistics into *telemetry*.

    Per-frame threshold margins (in spread units), Block confidence and
    per-GOB availability/parity accounting -- the numbers DeepLight-style
    link debugging needs per condition, here per run.
    """
    metrics = telemetry.metrics
    margins = metrics.histogram("decode.threshold_margin", THRESHOLD_MARGIN_EDGES)
    for frame in decoded:
        metrics.counter("decode.frames").inc()
        if frame.spread > 1e-9:
            margins.observe_array(
                np.abs(frame.noise_map - frame.threshold) / frame.spread
            )
        metrics.counter("decode.blocks_total").inc(int(frame.confident.size))
        metrics.counter("decode.blocks_confident").inc(int(frame.confident.sum()))
        metrics.counter("decode.gobs_total").inc(int(frame.gob_available.size))
        metrics.counter("decode.gobs_available").inc(int(frame.gob_available.sum()))
        metrics.counter("decode.gob_parity_failures").inc(
            int(np.sum(frame.gob_available & ~frame.gob_parity_ok))
        )


def record_healing_telemetry(report: HealingReport, telemetry: Telemetry) -> None:
    """Record a healed decode's repairs: counters plus resync trace events."""
    metrics = telemetry.metrics
    metrics.counter("heal.windows").inc(report.windows)
    metrics.counter("heal.relock_attempts").inc(report.relock_attempts)
    metrics.counter("heal.resyncs").inc(report.n_resyncs)
    metrics.counter("heal.excluded_captures").inc(report.excluded_captures)
    metrics.counter("heal.blackout_segments").inc(
        sum(1 for segment in report.segments if segment.blackout)
    )
    for event in report.resyncs:
        telemetry.tracer.event(
            "heal.resync",
            capture=event.capture_index,
            time_s=event.time_s,
            phase_before_s=event.phase_before_s,
            phase_after_s=event.phase_after_s,
        )
