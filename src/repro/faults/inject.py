"""Fault injectors: where a compiled plan meets the capture stream.

Injection happens at three points, matching where real systems fail:

* :class:`FaultInjectedCamera` wraps the :class:`~repro.camera.capture.CameraModel`
  used by the runtime workers.  Timing faults (clock drift, extra
  jitter, polarity slips) shift the *true* render time while the frame
  keeps its *nominal* timestamps -- the camera's clock lies, exactly the
  desynchronisation the self-healing decoder must detect.  Pixel faults
  (exposure/ambient steps, occlusion blackouts) land on the rendered
  frame before the decoder's observation is extracted.
* :func:`apply_stream_faults` post-processes the ordered capture list in
  the parent: dropped captures vanish, duplicated captures deliver the
  previous frame's *pixels* under their own timestamps (a stale frame
  buffer), and reordered captures swap content with a nearby capture --
  all timestamp/content mismatches a naive decoder trusts blindly.
* :meth:`PacketFaults.apply` (from :meth:`FaultPlan.packet_faults`)
  damages transport packets after the PHY decode (miscorrected RS
  codewords, torn buffers).

Because every decision was pre-drawn by :meth:`FaultPlan.compile`, the
injectors are pure functions: parallel and serial runs inject the exact
same faults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.camera.capture import CameraModel, CapturedFrame, CaptureNoise, TimelineLike
from repro.core.decoder import BlockObservation
from repro.faults.plan import CompiledFaults
from repro.faults.report import InjectionLog


@dataclass(frozen=True)
class FaultInjectedCamera:
    """A camera whose clock and optics misbehave per a compiled plan.

    Duck-types the one :class:`~repro.camera.capture.CameraModel` call
    the receive chain makes (``capture_frame``).  The returned frames
    carry the *nominal* timestamps -- the injected time offset is
    invisible to the receiver, which is the whole point.
    """

    camera: CameraModel
    compiled: CompiledFaults

    def capture_frame(
        self,
        timeline: TimelineLike,
        index: int,
        noise: CaptureNoise | None = None,
    ) -> CapturedFrame:
        """Capture frame *index* at its faulted true time, nominally stamped.

        The shift moves only the clock, so *noise* is the wrapped camera's
        :meth:`~repro.camera.capture.CameraModel.draw_noise`.
        """
        offset = self.compiled.capture_time_offset(index)
        if offset != 0.0:
            shifted = replace(
                self.camera, clock_offset_s=self.camera.clock_offset_s + offset
            )
        else:
            shifted = self.camera
        capture = shifted.capture_frame(timeline, index, noise=noise)
        pixels = self.compiled.perturb_pixels(
            index, capture.mid_exposure_s - offset, capture.pixels
        )
        return CapturedFrame(
            pixels=pixels,
            index=capture.index,
            start_time_s=capture.start_time_s - offset,
            mid_exposure_s=capture.mid_exposure_s - offset,
        )


def apply_stream_faults(
    compiled: CompiledFaults,
    captures: list[CapturedFrame],
    observations: list[BlockObservation],
) -> tuple[list[CapturedFrame], list[BlockObservation], InjectionLog]:
    """Drop, duplicate and reorder the ordered capture stream.

    *captures* and *observations* must be index-aligned (as produced by
    :meth:`repro.core.pipeline.InFrameReceiver.capture`).  Returns the
    faulted stream plus the :class:`InjectionLog` accounting every event
    that actually landed inside the stream.

    Duplication and reordering move pixel *content* between captures
    while each capture keeps its own timestamps: the decoder's noise
    evidence (already extracted per capture) moves with the content, so
    the observation list stays consistent with what a receiver
    re-observing the faulted pixels would compute.
    """
    n = len(captures)
    if len(observations) != n:
        raise ValueError(
            f"captures ({n}) and observations ({len(observations)}) misaligned"
        )
    content = list(range(n))  # content[i] = which original capture's pixels land at i

    reordered = 0
    for i, j in compiled.swaps:
        if i < n and j < n:
            content[i], content[j] = content[j], content[i]
            reordered += 2

    duplicated = 0
    for i in range(1, min(n, compiled.duplicated.size)):
        if compiled.duplicated[i]:
            content[i] = content[i - 1]
            duplicated += 1

    out_captures: list[CapturedFrame] = []
    out_observations: list[BlockObservation] = []
    dropped = 0
    for i in range(n):
        if i < compiled.dropped.size and compiled.dropped[i]:
            dropped += 1
            continue
        src = content[i]
        if src == i:
            out_captures.append(captures[i])
            out_observations.append(observations[i])
        else:
            out_captures.append(replace(captures[i], pixels=captures[src].pixels))
            out_observations.append(
                replace(
                    observations[i],
                    noise_map=observations[src].noise_map,
                    level=observations[src].level,
                )
            )
    if not out_captures:
        # The drop guard in FaultPlan.compile keeps one capture alive,
        # but swaps/duplicates cannot empty the stream either way.
        raise AssertionError("stream faults erased every capture")

    blackout = sum(
        1 for c in out_captures if compiled.in_blackout(c.mid_exposure_s)
    )
    log = InjectionLog(
        dropped_captures=dropped,
        duplicated_captures=duplicated,
        reordered_captures=reordered,
        blackout_captures=blackout,
        polarity_flips=len(compiled.flip_times_s),
        exposure_steps=len(compiled.exposure_steps),
        ambient_steps=len(compiled.ambient_steps),
    )
    return out_captures, out_observations, log
