"""The camera: clocking, geometry and the full capture pipeline.

A :class:`CameraModel` watches a :class:`~repro.display.DisplayTimeline`
from a fixed fronto-parallel position (the paper captures from 50 cm, about
the desk width) and produces timestamped 8-bit frames.  Per camera frame:

1. the rolling shutter computes how much each display frame contributes to
   each sensor row;
2. the contributing display-frame average-luminance fields are blended with
   those row weights (at display resolution);
3. the lens applies PSF blur and vignetting;
4. the field is resampled to the capture resolution (1280x720 from a
   1920x1080 panel in the paper's setup);
5. the sensor adds shot/read noise and quantises to 8 bits.

Steps 3 and 4 are linear, separable and fixed per geometry, so each is a
pair of banded sparse operators built once and cached
(:mod:`repro.camera.operators`): the lens is ``Gr @ B @ Gc.T`` times a
cached vignette mask, the resample ``Mr @ Y @ Mc.T``.  Each 1-D operator
is the matrix of the SciPy filter it replaces (``gaussian_filter1d`` with
``mode="nearest"``; anti-alias blur plus bilinear ``zoom`` with
``grid_mode=True``, including the fix-up for zoom's output-length
rounding), so outputs match that filter chain to float32 rounding: at
most 1e-6 relative per pixel, about 3e-6 of pixels move by 1 LSB after
quantisation, and no decoded bit changed at seeds 1-10 on the benchmark's
``link-gray``, ``link-video-faults`` and ``fleet`` workloads.

The camera clock is independent of the display clock: a start offset and a
small drift rate reproduce the frame-rate mismatch the paper lists among
the screen-camera channel limitations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from repro._util import check_in_range, check_positive, check_positive_int
from repro.camera.geometry import PerspectiveView, warp_image
from repro.camera.operators import apply_separable, resample_operators
from repro.camera.optics import OpticsModel
from repro.camera.rolling_shutter import RollingShutter
from repro.camera.sensor import SensorModel
from repro.display.panel import DisplayPanel


class TimelineLike(Protocol):
    """The display-timeline surface the capture pipeline consumes.

    :class:`~repro.display.scheduler.DisplayTimeline` satisfies it, and
    so does :class:`~repro.display.scheduler.MemoizedTimeline` -- the
    camera only ever needs the panel's clocking, the stream length and
    the per-frame average-luminance field, so anything serving those can
    be filmed (which is what lets a broadcast session share one
    render-once timeline across a fleet of cameras).
    """

    @property
    def panel(self) -> DisplayPanel:
        """The panel doing the playback."""
        ...

    @property
    def n_frames(self) -> int:
        """Display frames in the stream."""
        ...

    @property
    def duration_s(self) -> float:
        """Total playback duration in seconds."""
        ...

    def frame_average_luminance(self, index: int) -> np.ndarray:
        """Mean luminance field over frame *index*'s refresh interval."""
        ...


@dataclass(frozen=True)
class CapturedFrame:
    """One camera frame plus its timing metadata."""

    pixels: np.ndarray
    index: int
    start_time_s: float
    mid_exposure_s: float


@dataclass(frozen=True)
class CameraModel:
    """A rolling-shutter camera watching the display.

    The defaults model the paper's receiver settings: 1280x720 at 30 FPS.

    Attributes
    ----------
    width, height:
        Capture resolution.
    fps:
        Nominal capture rate.
    exposure_s:
        Per-row exposure time.  Must be short relative to the display's
        complementary pair (1/60 s) for the chessboard to survive;
        1/500 s is a typical indoor auto-exposure outcome for a bright
        monitor at low ISO.
    readout_s:
        Rolling-shutter readout span (row 0 to last row).
    clock_offset_s:
        Camera start time relative to display frame 0.
    clock_drift:
        Fractional frequency error of the camera clock (3e-5 = 30 ppm).
    timing_jitter_s:
        Per-frame standard deviation of the capture start time.  Real
        camera pipelines do not start frames on a perfect clock; the
        jitter moves the rolling-shutter cancellation bands between
        captures, which is what lets the decoder's multi-capture
        aggregation recover Blocks a single capture loses.
    screen_fill:
        Fraction of the capture's extent the screen subtends (centred,
        fronto-parallel).  1.0 is the paper's 50 cm desk-width setup;
        smaller values model standing further from the display -- the
        screen shrinks, each Block covers fewer sensor pixels, and the
        surroundings fill the rest of the frame.
    background_luminance:
        Luminance (cd/m^2) of the surroundings visible around the screen.
    view:
        Optional :class:`~repro.camera.geometry.PerspectiveView` for
        off-axis capture; overrides the fronto-parallel ``screen_fill``
        placement when set.
    optics, sensor:
        The lens and sensor submodels.
    """

    width: int = 1280
    height: int = 720
    fps: float = 30.0
    exposure_s: float = 1.0 / 500.0
    readout_s: float = 0.012
    clock_offset_s: float = 0.0
    clock_drift: float = 3.0e-5
    timing_jitter_s: float = 8.0e-4
    screen_fill: float = 1.0
    background_luminance: float = 2.0
    view: PerspectiveView | None = None
    optics: OpticsModel = field(default_factory=OpticsModel)
    sensor: SensorModel = field(default_factory=SensorModel)

    def __post_init__(self) -> None:
        check_positive_int(self.width, "width")
        check_positive_int(self.height, "height")
        check_positive(self.fps, "fps")
        check_positive(self.exposure_s, "exposure_s")
        check_in_range(self.readout_s, "readout_s", 0.0, 0.5)
        check_in_range(self.clock_drift, "clock_drift", -0.01, 0.01)
        check_in_range(self.timing_jitter_s, "timing_jitter_s", 0.0, 0.01)
        check_in_range(self.screen_fill, "screen_fill", 0.05, 1.0)
        check_in_range(self.background_luminance, "background_luminance", 0.0, 1e4)

    @property
    def frame_interval_s(self) -> float:
        """Seconds between camera frame starts (with drift applied)."""
        return 1.0 / (self.fps * (1.0 + self.clock_drift))

    def frame_start(self, index: int) -> float:
        """Start time of camera frame *index* on the display's clock."""
        return self.clock_offset_s + index * self.frame_interval_s

    def shutter(self) -> RollingShutter:
        """The rolling-shutter geometry for this camera."""
        return RollingShutter(
            n_rows=self.height, exposure_s=self.exposure_s, readout_s=self.readout_s
        )

    def screen_rect(self) -> tuple[int, int, int, int]:
        """Camera-pixel rect ``(row0, row1, col0, col1)`` the screen occupies."""
        screen_h = max(int(round(self.height * self.screen_fill)), 2)
        screen_w = max(int(round(self.width * self.screen_fill)), 2)
        row0 = (self.height - screen_h) // 2
        col0 = (self.width - screen_w) // 2
        return (row0, row0 + screen_h, col0, col0 + screen_w)

    def auto_exposed(self, peak_luminance: float, target_level: float = 210.0) -> "CameraModel":
        """Copy with the sensor gain calibrated to the display's peak luminance."""
        sensor = self.sensor.calibrated_for(peak_luminance, self.exposure_s, target_level)
        return replace(self, sensor=sensor)

    # ------------------------------------------------------------------
    # Capture pipeline
    # ------------------------------------------------------------------
    def capture_frame(
        self,
        timeline: TimelineLike,
        index: int,
        rng: np.random.Generator | None = None,
    ) -> CapturedFrame:
        """Capture camera frame *index* from the display timeline."""
        start = self.frame_start(index)
        if rng is not None and self.timing_jitter_s > 0.0:
            start += float(rng.normal(0.0, self.timing_jitter_s))
            start = max(start, 0.0)
        shutter = self.shutter()
        weights = shutter.display_frame_weights(
            start, timeline.panel.frame_interval_s, timeline.n_frames
        )
        display_h = timeline.panel.height
        if self.view is not None:
            top_y, bottom_y = self.view.vertical_span()
            display_rows = np.linspace(top_y, bottom_y, display_h)
        else:
            row0, row1, col0, col1 = self.screen_rect()
            display_rows = np.linspace(float(row0), float(row1 - 1), display_h)
        blended: np.ndarray | None = None
        for display_index, row_weights in weights.items():
            field_lum = timeline.frame_average_luminance(display_index)
            # Map per-camera-row weights onto the display rows they land on
            # (for perspective views this uses the quad's vertical span,
            # which is exact for pure-yaw tilts and a good approximation
            # otherwise).
            w_display = np.interp(
                display_rows, np.arange(self.height, dtype=np.float64), row_weights
            ).astype(np.float32)[:, None]
            contribution = field_lum * w_display
            blended = contribution if blended is None else blended + contribution
        assert blended is not None  # weights dict is never empty
        focused = self.optics.apply(blended)
        if self.view is not None:
            h_matrix = self.view.homography(focused.shape[0], focused.shape[1])
            scene = warp_image(
                focused,
                h_matrix,
                (self.height, self.width),
                background=self.background_luminance,
            )
        else:
            screen_image = self._resample(focused, (row1 - row0, col1 - col0))
            scene = np.full(
                (self.height, self.width), np.float32(self.background_luminance)
            )
            scene[row0:row1, col0:col1] = screen_image
        pixels = self.sensor.expose(scene, self.exposure_s, rng=rng)
        mid = start + self.readout_s / 2.0 + self.exposure_s / 2.0
        return CapturedFrame(
            pixels=pixels, index=index, start_time_s=start, mid_exposure_s=mid
        )

    def capture_sequence(
        self,
        timeline: TimelineLike,
        n_frames: int,
        rng: np.random.Generator | None = None,
        start_index: int = 0,
    ) -> list[CapturedFrame]:
        """Capture *n_frames* consecutive camera frames."""
        check_positive_int(n_frames, "n_frames")
        return [
            self.capture_frame(timeline, start_index + i, rng=rng)
            for i in range(n_frames)
        ]

    def frames_covering(self, timeline: TimelineLike) -> int:
        """How many camera frames fit inside the display stream's duration."""
        usable = timeline.duration_s - self.clock_offset_s - self.readout_s - self.exposure_s
        return max(int(np.floor(usable * self.fps * (1.0 + self.clock_drift))), 0)

    def _resample(
        self, image: np.ndarray, target: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Resample a display-resolution field to the target resolution.

        Anti-alias blur matched to the new pixel pitch, then bilinear
        zoom, as the cached operator pair of this geometry.
        """
        target_h, target_w = target if target is not None else (self.height, self.width)
        src_h, src_w = image.shape
        if (src_h, src_w) == (target_h, target_w):
            return image
        rows, cols = resample_operators(src_h, src_w, target_h, target_w)
        return apply_separable(rows, cols, np.asarray(image, dtype=np.float32))
