"""Display substrate: gamma curve, panel model, timeline/scheduler."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import check_frame
from repro.analysis.experiments import ExperimentScale
from repro.core.config import InFrameConfig
from repro.core.encoder import DataFrameEncoder
from repro.core.framing import PseudoRandomSchedule
from repro.core.multiplexer import MultiplexedStream
from repro.core.pipeline import run_link
from repro.display.gamma import GammaCurve
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline, MemoizedTimeline
from repro.video.source import (
    ArrayVideoSource,
    ConstantVideoSource,
    FunctionVideoSource,
    LoopingVideoSource,
)
from repro.video.synthetic import (
    checker_texture_video,
    gradient_video,
    noise_video,
    pure_color_video,
    rgb_color_video,
    rgb_sunrise_video,
    sunrise_video,
)


class TestGammaCurve:
    def test_endpoints(self):
        curve = GammaCurve(gamma=2.2, peak_luminance=300.0, black_level=0.3)
        assert float(curve.to_luminance(0)) == pytest.approx(0.3)
        assert float(curve.to_luminance(255)) == pytest.approx(300.0)

    def test_monotone(self):
        curve = GammaCurve()
        lums = curve.to_luminance(np.arange(256, dtype=np.float32))
        assert np.all(np.diff(lums) > 0)

    @given(st.floats(min_value=0.0, max_value=255.0))
    @settings(max_examples=50)
    def test_roundtrip(self, value):
        curve = GammaCurve()
        back = float(curve.to_pixel(curve.to_luminance(value)))
        assert back == pytest.approx(value, abs=0.05)

    def test_local_slope_matches_numeric_derivative(self):
        curve = GammaCurve()
        v = 127.0
        eps = 0.01
        numeric = (float(curve.to_luminance(v + eps)) - float(curve.to_luminance(v - eps))) / (
            2 * eps
        )
        assert float(curve.local_slope(v)) == pytest.approx(numeric, rel=1e-3)

    def test_slope_grows_with_level(self):
        curve = GammaCurve()
        assert float(curve.local_slope(200)) > float(curve.local_slope(100))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            GammaCurve(gamma=0.5)

    def test_rejects_black_above_peak(self):
        with pytest.raises(ValueError):
            GammaCurve(peak_luminance=100.0, black_level=200.0)


class TestDisplayPanel:
    def test_defaults_match_paper_setup(self):
        panel = DisplayPanel()
        assert (panel.width, panel.height) == (1920, 1080)
        assert panel.refresh_hz == 120.0
        assert panel.brightness == 1.0

    def test_frame_interval(self):
        assert DisplayPanel(refresh_hz=120.0).frame_interval_s == pytest.approx(1 / 120)

    def test_emitted_luminance_scales_with_brightness(self):
        dim = DisplayPanel(width=4, height=4, brightness=0.5)
        bright = DisplayPanel(width=4, height=4, brightness=1.0)
        frame = np.full((4, 4), 127.0, dtype=np.float32)
        ratio = dim.emitted_luminance(frame) / bright.emitted_luminance(frame)
        assert np.allclose(ratio, 0.5)

    def test_viewing_distance_rule(self):
        panel = DisplayPanel(diagonal_inches=24.0)
        assert panel.typical_viewing_distance_m() == pytest.approx(1.2 * 24 * 25.4 / 1000)

    def test_scaled_preserves_timing(self):
        panel = DisplayPanel().scaled(0.5)
        assert (panel.width, panel.height) == (960, 540)
        assert panel.refresh_hz == 120.0

    def test_pixel_pitch(self):
        panel = DisplayPanel()
        # 24" 1080p is ~0.277 mm pitch.
        assert panel.pixel_pitch_mm == pytest.approx(0.2767, abs=1e-3)

    def test_rejects_bad_brightness(self):
        with pytest.raises(ValueError):
            DisplayPanel(brightness=1.5)


def _two_frame_timeline(response_time_s=0.0):
    frames = np.stack(
        [np.full((4, 6), 50.0, np.float32), np.full((4, 6), 200.0, np.float32)] * 4
    )
    panel = DisplayPanel(width=6, height=4, refresh_hz=120.0, response_time_s=response_time_s)
    return DisplayTimeline(panel, ArrayVideoSource(frames, fps=120.0))


class TestDisplayTimeline:
    def test_duration(self):
        timeline = _two_frame_timeline()
        assert timeline.duration_s == pytest.approx(8 / 120)

    def test_frame_index_clamping(self):
        timeline = _two_frame_timeline()
        assert timeline.frame_index_at(-1.0) == 0
        assert timeline.frame_index_at(100.0) == timeline.n_frames - 1

    def test_instant_luminance_without_response(self):
        timeline = _two_frame_timeline(response_time_s=0.0)
        lum0 = timeline.luminance_at(0.001)
        lum1 = timeline.luminance_at(1 / 120 + 0.001)
        assert float(lum1.mean()) > float(lum0.mean())

    def test_lc_response_softens_transition(self):
        instant = _two_frame_timeline(response_time_s=0.0)
        slow = _two_frame_timeline(response_time_s=0.004)
        t = 1 / 120 + 0.0005  # just after the 50 -> 200 flip
        assert float(slow.luminance_at(t).mean()) < float(instant.luminance_at(t).mean())

    def test_lc_response_converges_to_target(self):
        slow = _two_frame_timeline(response_time_s=0.001)
        instant = _two_frame_timeline(response_time_s=0.0)
        t = 2 / 120 - 1e-5  # end of the second frame
        assert float(slow.luminance_at(t).mean()) == pytest.approx(
            float(instant.luminance_at(t).mean()), rel=0.01
        )

    def test_integration_of_constant_region(self):
        timeline = _two_frame_timeline(response_time_s=0.0)
        inside = timeline.integrate(0.0005, 1 / 120 - 0.0005)
        point = timeline.luminance_at(0.004)
        assert np.allclose(inside, point, rtol=1e-5)

    def test_integration_across_boundary_is_weighted_mean(self):
        timeline = _two_frame_timeline(response_time_s=0.0)
        # Window covering frames 0 and 1 equally.
        t0 = 1 / 120 - 0.002
        t1 = 1 / 120 + 0.002
        lum = float(timeline.integrate(t0, t1).mean())
        lum0 = float(timeline.luminance_at(0.001).mean())
        lum1 = float(timeline.luminance_at(1 / 120 + 0.001).mean())
        assert lum == pytest.approx((lum0 + lum1) / 2, rel=1e-3)

    def test_integrate_rejects_empty_window(self):
        timeline = _two_frame_timeline()
        with pytest.raises(ValueError):
            timeline.integrate(0.01, 0.01)

    def test_integration_matches_dense_sampling_with_lc(self):
        timeline = _two_frame_timeline(response_time_s=0.003)
        t0, t1 = 0.004, 0.02
        analytic = float(timeline.integrate(t0, t1).mean())
        times = np.linspace(t0, t1, 4001)
        sampled = np.mean([float(timeline.luminance_at(float(t)).mean()) for t in times])
        assert analytic == pytest.approx(sampled, rel=2e-3)

    def test_frame_average_luminance_matches_integrate(self):
        timeline = _two_frame_timeline(response_time_s=0.002)
        avg = timeline.frame_average_luminance(2)
        direct = timeline.integrate(2 / 120, 3 / 120)
        assert np.allclose(avg, direct)

    def test_rect_crop(self):
        timeline = _two_frame_timeline()
        crop = timeline.luminance_at(0.001, rect=(0, 2, 1, 3))
        assert crop.shape == (2, 2)

    def test_region_and_pixel_waveforms(self):
        timeline = _two_frame_timeline()
        times = np.linspace(0.0, timeline.duration_s - 1e-4, 16)
        wave = np.array([timeline.luminance_at(t).mean() for t in times])
        pixel = np.array([timeline.luminance_at(t, (0, 1, 0, 1)).mean() for t in times])
        assert wave.shape == pixel.shape == (16,)
        # Alternating frames produce an alternating waveform.
        assert wave.std() > 10

    def test_backwards_state_access_is_consistent(self):
        timeline = _two_frame_timeline(response_time_s=0.002)
        forward = float(timeline.luminance_at(0.05).mean())
        _ = timeline.luminance_at(0.06)
        again = float(timeline.luminance_at(0.05).mean())
        assert forward == pytest.approx(again, rel=1e-5)

    def test_empty_source_rejected(self):
        panel = DisplayPanel(width=6, height=4)

        class Empty:
            n_frames = 0

            def frame(self, i):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(ValueError):
            DisplayTimeline(panel, Empty())

    def test_cache_frames_bounds_cache_size(self):
        bound = DisplayTimeline._CACHE_FRAMES
        frames = np.stack(
            [np.full((4, 6), float(v), np.float32) for v in range(2 * bound)]
        )
        panel = DisplayPanel(width=6, height=4, refresh_hz=120.0)
        timeline = DisplayTimeline(panel, ArrayVideoSource(frames, fps=120.0))
        for index in range(2 * bound):
            timeline.frame_average_luminance(index)
        assert len(timeline._lum_cache) <= bound
        assert len(timeline._avg_cache) <= bound


class TestPlaybackOrder:
    def test_link_run_renders_each_content_frame_once(self):
        # The camera skips display frames between captures; the LC state
        # walk over them must not send a one-frame source back and forth.
        quick = replace(ExperimentScale.quick(), n_video_frames=12)
        video = quick.video("video")
        renders: Counter[int] = Counter()
        render = video._render

        def counted(index: int) -> np.ndarray:
            renders[index] += 1
            return render(index)

        video._render = counted
        run_link(quick.config(), video, camera=quick.camera(), seed=5)
        assert sorted(renders) == list(range(max(renders) + 1))
        assert set(renders.values()) == {1}
        assert len(renders) >= video.n_frames - 1


# ----------------------------------------------------------------------
# Display emit against the one-operator-per-expression formulas
# ----------------------------------------------------------------------
# Each reference below allocates a result per operator; src/ computes the
# same ufuncs in the same per-element order into fewer arrays, and shares
# one modulation field across the frames that have the same inputs.
def reference_expand_block_grid(geometry, grid: np.ndarray) -> np.ndarray:
    """``FrameGeometry.expand_block_grid`` via ``np.kron`` (the test oracle)."""
    side = geometry.config.block_side_px
    field = np.zeros((geometry.frame_height, geometry.frame_width), dtype=np.float32)
    expanded = np.kron(
        np.asarray(grid).astype(np.float32), np.ones((side, side), dtype=np.float32)
    )
    rows, cols = geometry.data_area_slices()
    field[rows, cols] = expanded
    return field


def reference_headroom(encoder: DataFrameEncoder, video: np.ndarray) -> np.ndarray:
    """``DataFrameEncoder._headroom`` (the test oracle)."""
    config = encoder.config
    if video.ndim == 3:
        per_pixel = np.minimum(video.min(axis=2), 255.0 - video.max(axis=2)).astype(
            np.float32
        )
    else:
        per_pixel = np.minimum(video, 255.0 - video).astype(np.float32)
    if config.clip_mode == "pixel":
        return per_pixel
    rows, cols = encoder.geometry.data_area_slices()
    side = config.block_side_px
    masked = np.where(encoder.pattern[rows, cols] > 0, per_pixel[rows, cols], np.float32(np.inf))
    block_min = masked.reshape(config.block_rows, side, config.block_cols, side).min(axis=(1, 3))
    block_min = np.where(np.isfinite(block_min), block_min, 0.0).astype(np.float32)
    field = np.zeros_like(per_pixel)
    field[rows, cols] = np.kron(block_min, np.ones((side, side), dtype=np.float32))
    return field


def reference_modulation_field(
    encoder: DataFrameEncoder,
    video_frame: np.ndarray,
    bits_now: np.ndarray,
    bits_next: np.ndarray | None = None,
    step: int = 0,
) -> np.ndarray:
    """``DataFrameEncoder.modulation_field`` (the test oracle)."""
    video = check_frame(video_frame, "video_frame")
    if bits_next is None:
        bits_next = bits_now
    envelope = encoder.envelope_grid(bits_now, bits_next, step)
    envelope_field = reference_expand_block_grid(encoder.geometry, envelope)
    if encoder.config.adaptive_amplitude:
        delta = encoder._adaptive_delta(video)
        amplitude = envelope_field * reference_expand_block_grid(encoder.geometry, delta)
    else:
        amplitude = envelope_field * np.float32(encoder.config.amplitude)
    headroom = reference_headroom(encoder, video)
    return (np.minimum(amplitude, headroom) * encoder.pattern).astype(np.float32)


def reference_frame(stream: MultiplexedStream, index: int) -> np.ndarray:
    """``MultiplexedStream.frame``, recomputing the field every frame (the test oracle)."""
    video_frame = stream.video.frame(index // stream.config.frame_duplication)
    data_index, step = divmod(index, stream.config.tau)
    modulation = reference_modulation_field(
        stream.encoder, video_frame, stream._bits(data_index), stream._bits(data_index + 1), step
    )
    sign = np.float32(1.0 if index % 2 == 0 else -1.0)
    offset = sign * modulation + stream.encoder.compensation_field(video_frame, modulation)
    if video_frame.ndim == 3:
        offset = offset[..., None]
    return np.clip(video_frame + offset, 0.0, 255.0).astype(np.float32)


def reference_to_luminance(curve: GammaCurve, pixel_values) -> np.ndarray:
    """``GammaCurve.to_luminance`` (the test oracle)."""
    values = np.clip(np.asarray(pixel_values, dtype=np.float32), 0.0, 255.0)
    normalized = values / np.float32(255.0)
    span = curve.peak_luminance - curve.black_level
    return (curve.black_level + span * normalized**curve.gamma).astype(np.float32)


def reference_emitted_luminance(panel: DisplayPanel, frame: np.ndarray) -> np.ndarray:
    """``DisplayPanel.emitted_luminance`` (the test oracle)."""
    frame = np.asarray(frame)
    if frame.ndim == 3:
        weights = np.array([0.2126, 0.7152, 0.0722], dtype=np.float32)
        channels = reference_to_luminance(panel.gamma_curve, frame)
        lum = (channels * weights).sum(axis=2)
        return (lum * np.float32(panel.brightness)).astype(np.float32)
    lum = reference_to_luminance(panel.gamma_curve, frame)
    return (lum * np.float32(panel.brightness)).astype(np.float32)


def reference_luminance_at(timeline: DisplayTimeline, t: float, rect=None) -> np.ndarray:
    """``DisplayTimeline.luminance_at`` (the test oracle)."""
    index = timeline.frame_index_at(t)
    if timeline.panel.response_time_s <= 0.0:
        return timeline._crop(timeline._frame_luminance(index), rect)
    previous_state = timeline._state_before(index)
    target = timeline._frame_luminance(index)
    elapsed = max(t - timeline.latch_time(index), 0.0)
    decay = np.float32(np.exp(-elapsed / timeline.panel.response_time_s))
    return timeline._crop(target + (previous_state - target) * decay, rect)


def reference_luminance_rows(timeline: DisplayTimeline, times) -> tuple[np.ndarray, None]:
    """``DisplayTimeline.luminance_rows`` as full fields, one per time (the test oracle)."""
    return np.stack([reference_luminance_at(timeline, t) for t in times]), None


def reference_integrate(timeline: DisplayTimeline, t0: float, t1: float, rect=None) -> np.ndarray:
    """``DisplayTimeline.integrate`` (the test oracle)."""
    tau = timeline.panel.response_time_s
    total = None
    first_index = timeline.frame_index_at(t0)
    last_index = timeline.frame_index_at(t1 - 1e-12)
    for index in range(first_index, last_index + 1):
        seg_start = max(t0, timeline.latch_time(index)) if index > first_index else t0
        seg_end = min(t1, timeline.latch_time(index + 1))
        if index == timeline.n_frames - 1:
            seg_end = t1
        seg_len = seg_end - seg_start
        if seg_len <= 0:
            continue
        previous_state = (
            timeline._crop(timeline._state_before(index), rect) if tau > 0.0 else None
        )
        target = timeline._crop(timeline._frame_luminance(index), rect)
        piece = target * np.float32(seg_len)
        if previous_state is not None:
            a = max(seg_start - timeline.latch_time(index), 0.0)
            b = max(seg_end - timeline.latch_time(index), 0.0)
            weight = np.float32(tau * (np.exp(-a / tau) - np.exp(-b / tau)))
            piece = piece + (previous_state - target) * weight
        total = piece if total is None else total + piece
    return (total / np.float32(t1 - t0)).astype(np.float32)


def reference_state_before(timeline: DisplayTimeline, index: int) -> np.ndarray:
    """``DisplayTimeline._state_before`` (the test oracle), re-warming as deep."""
    if index == 0:
        return timeline._frame_luminance(0)
    if timeline._state is not None and timeline._state_index == index:
        return timeline._state
    depth = timeline._warmup_frames
    if (
        timeline._state is None
        or timeline._state_index > index
        or timeline._state_index < index - max(64, depth)
    ):
        start = max(index - depth, 0)
        state = timeline._frame_luminance(start).copy()
        timeline._state_index = start + 1
    else:
        state = timeline._state
    decay = np.float32(np.exp(-timeline.panel.frame_interval_s / timeline.panel.response_time_s))
    for i in range(timeline._state_index, index):
        target = timeline._frame_luminance(i)
        state = target + (state - target) * decay
    timeline._state = state
    timeline._state_index = index
    return state


_H, _W = 20, 30  # a 16x24 data area (4x6 Blocks of 4 px) with a margin
_N_VIDEO_FRAMES = 9  # 36 display frames: three tau=12 cycles
#: Every display frame forward, then backward jumps and repeats.
_ORDER = [*range(_N_VIDEO_FRAMES * 4), 21, 5, 5, 33, 0, 0, 18, 35, 12, 13, 13]

_VIDEOS = {
    "gray": lambda n=_N_VIDEO_FRAMES: pure_color_video(_H, _W, 127.0, n_frames=n),
    "bright": lambda n=_N_VIDEO_FRAMES: pure_color_video(_H, _W, 245.0, n_frames=n),
    "looped-gray": lambda n=_N_VIDEO_FRAMES: LoopingVideoSource(
        pure_color_video(_H, _W, 180.0, n_frames=3), n // 3
    ),
    "sunrise": lambda n=_N_VIDEO_FRAMES: sunrise_video(_H, _W, n_frames=n),
    "rgb-sunrise": lambda n=_N_VIDEO_FRAMES: rgb_sunrise_video(_H, _W, n_frames=n),
    "gradient": lambda n=_N_VIDEO_FRAMES: gradient_video(_H, _W, n_frames=n),
}
#: The clips a multiplexed stream plays as palettes of pixel-class values.
_UNIFORM = {"gray", "bright", "looped-gray"}
_BASE = InFrameConfig(
    element_pixels=1, pixels_per_block=4, block_rows=4, block_cols=6, amplitude=20.0, tau=12
)
_CONFIGS = {
    "base": _BASE,
    "gamma-comp": replace(_BASE, gamma_compensation=True),
    "adaptive": replace(_BASE, adaptive_amplitude=True),
    "block-clip": replace(_BASE, clip_mode="block"),
    "tau10": replace(_BASE, tau=10),
    "tau14-linear": replace(_BASE, tau=14, waveform="linear"),
    "stripes": replace(_BASE, pattern="stripes"),
    # One 4 px super Pixel per Block: the random pattern leaves some Blocks
    # no modulated pixel, so their pixel classes are empty.
    "random": replace(_BASE, pattern="random", element_pixels=4, pixels_per_block=1),
}
_PANELS = {
    "lc": DisplayPanel(width=_W, height=_H),
    "no-lc": DisplayPanel(width=_W, height=_H, response_time_s=0.0),
    "dim": DisplayPanel(width=_W, height=_H, brightness=0.6),
    # A re-warm walks ceil(ln(1e10) * 50 / 8.3) = 139 frames, so in the
    # streams below it starts from frame 0 and repeats the walk.
    "slow-lc": DisplayPanel(width=_W, height=_H, response_time_s=0.05),
}
#: 120 display frames, so that a jump can skip more than 64 of them.
_N_LONG_VIDEO_FRAMES = 30
#: (read, display frame, phase within the frame): samples at one frame with
#: other reads between them that move the LC state backwards (a re-warm),
#: forwards by more than 64 frames (a re-warm when it walks fewer) or one
#: frame on.  A "rows" read samples the frame at several phases at once.
_INTERLEAVED = [
    ("sample", 10, 0.1), ("average", 3, 0.0), ("sample", 10, 0.4), ("sample", 10, 0.9),
    ("window", 90, 0.2), ("sample", 10, 0.6), ("sample", 11, 0.3), ("sample", 95, 0.1),
    ("average", 20, 0.0), ("sample", 95, 0.7), ("window", 96, 0.5), ("sample", 95, 0.2),
    ("rows", 95, (0.3, 0.6)), ("average", 12, 0.0), ("rows", 95, (0.1, 0.5, 0.9)),
    ("sample", 30, 0.4), ("frame", 31, 0.0), ("window", 100, 0.2), ("sample", 30, 0.4),
    ("sample", 0, 0.5), ("average", 0, 0.0), ("sample", 1, 0.5), ("window", 0, 0.3),
    ("sample", 1, 0.8), ("sample", 119, 0.9), ("sample", 40, 0.2), ("average", 119, 0.0),
    ("sample", 40, 0.2), ("sample", 41, 0.6), ("average", 40, 0.0), ("sample", 41, 0.6),
    ("rows", 41, (0.0, 0.25, 0.5, 0.75)), ("rows", 110, (0.2, 0.4)), ("rows", 41, (0.5, 0.6)),
]


def _stream_and_timeline(
    video, config: InFrameConfig, panel: DisplayPanel
) -> tuple[MultiplexedStream, DisplayTimeline]:
    stream = MultiplexedStream(
        config, video, PseudoRandomSchedule(config, seed=4), gamma_curve=panel.gamma_curve
    )
    return stream, DisplayTimeline(panel, stream)


def _sampled_fields(timeline: DisplayTimeline, times) -> np.ndarray:
    """``luminance_rows(times)`` expanded through ``row_of`` to one field per time."""
    samples, row_of = timeline.luminance_rows(times)
    return samples if row_of is None else samples[:, row_of]


def _emit_everything(
    video, config: InFrameConfig, panel: DisplayPanel, seen=lambda output: output
) -> list[np.ndarray]:
    """Display frames, frame averages, samples and windows, in ``_ORDER``.

    Each output passes through *seen* as it is read.
    """
    stream, timeline = _stream_and_timeline(video, config, panel)
    interval = panel.frame_interval_s
    crop = (2, 14, 3, 21)
    reads = [
        stream.frame,
        timeline.frame_average_luminance,
        lambda i: timeline.luminance_at((i + 0.4) * interval),
        lambda i: timeline.luminance_at((i + 0.7) * interval, crop),
        lambda i: _sampled_fields(timeline, [(i + f) * interval for f in (0.1, 0.45, 0.8)]),
        lambda i: timeline.integrate((i + 0.2) * interval, (i + 2.7) * interval),
        lambda i: timeline.integrate(i * interval, (i + 1.5) * interval, crop),
    ]
    return [seen(read(i)) for read in reads for i in _ORDER]


def _emit_interleaved(
    video, config: InFrameConfig, panel: DisplayPanel, warmup_frames: int | None = None
) -> list[np.ndarray]:
    """Every read of ``_INTERLEAVED``, in that order, on one timeline.

    *warmup_frames* overrides the frames a re-warm of the LC state walks.
    """
    stream, timeline = _stream_and_timeline(video, config, panel)
    if warmup_frames is not None:
        timeline._warmup_frames = warmup_frames
    interval = panel.frame_interval_s
    reads = {
        "frame": lambda i, f: stream.frame(i),
        "sample": lambda i, f: timeline.luminance_at((i + f) * interval),
        "rows": lambda i, fs: _sampled_fields(timeline, [(i + f) * interval for f in fs]),
        "average": lambda i, f: timeline.frame_average_luminance(i),
        "window": lambda i, f: timeline.integrate((i + f) * interval, (i + f + 2.5) * interval),
    }
    return [reads[read](index, phase) for read, index, phase in _INTERLEAVED]


class TestDisplayEmitOracle:
    @pytest.fixture
    def reference_chain(self, monkeypatch):
        def swap():
            # No source is uniform, so every stream is played pixel by pixel.
            for source in (ConstantVideoSource, LoopingVideoSource):
                monkeypatch.setattr(source, "uniform_frame", property(lambda self: None))
            monkeypatch.setattr(MultiplexedStream, "frame", reference_frame)
            monkeypatch.setattr(DataFrameEncoder, "modulation_field", reference_modulation_field)
            monkeypatch.setattr(GammaCurve, "to_luminance", reference_to_luminance)
            monkeypatch.setattr(DisplayPanel, "emitted_luminance", reference_emitted_luminance)
            monkeypatch.setattr(DisplayTimeline, "luminance_at", reference_luminance_at)
            monkeypatch.setattr(DisplayTimeline, "luminance_rows", reference_luminance_rows)
            monkeypatch.setattr(DisplayTimeline, "integrate", reference_integrate)
            monkeypatch.setattr(DisplayTimeline, "_integrate", reference_integrate)
            monkeypatch.setattr(DisplayTimeline, "_state_before", reference_state_before)

        return swap

    @pytest.mark.parametrize("config", list(_CONFIGS))
    @pytest.mark.parametrize("video", list(_VIDEOS))
    def test_uniform_clips_are_played_as_palettes(self, video, config):
        stream, timeline = _stream_and_timeline(
            _VIDEOS[video](), _CONFIGS[config], _PANELS["lc"]
        )
        assert (stream.classes is not None) == (timeline._class_rows is not None) == (
            video in _UNIFORM
        )
        if stream.classes is not None:
            for index in _ORDER:
                palette = stream.palette(index)
                assert not palette.flags.writeable
                assert np.array_equal(palette[0][stream.classes], stream.frame(index))

    def test_random_pattern_leaves_empty_classes(self):
        stream, _ = _stream_and_timeline(_VIDEOS["gray"](), _CONFIGS["random"], _PANELS["lc"])
        n_classes = _CONFIGS["random"].block_rows * _CONFIGS["random"].block_cols + 1
        counts = np.bincount(stream.classes.ravel(), minlength=n_classes)
        assert counts.shape == (n_classes,) and counts[0] > 0
        assert 0 < np.count_nonzero(counts[1:] == 0) < n_classes - 1

    @pytest.mark.parametrize("panel", list(_PANELS))
    @pytest.mark.parametrize("config", list(_CONFIGS))
    @pytest.mark.parametrize("video", list(_VIDEOS))
    def test_every_field_is_identical(self, video, config, panel, reference_chain):
        # The in-place outputs are compared only after every read, so a
        # write into a cached or shared array would show up here too.  The
        # reference plays the uniform clips pixel by pixel as well.
        fast = _emit_everything(_VIDEOS[video](), _CONFIGS[config], _PANELS[panel])
        reference_chain()
        slow = _emit_everything(_VIDEOS[video](), _CONFIGS[config], _PANELS[panel])
        assert len(fast) == len(slow)
        for got, want in zip(fast, slow):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)

    @staticmethod
    def _interleaved_matches_reference(video, config, reference_chain, warmup_frames=None):
        # The reference frames are fresh writeable arrays, so the reference
        # run reuses no luminance and no lag: any reuse across a re-warm of
        # the LC state differs from it.
        args = (_CONFIGS[config], _PANELS["slow-lc"], warmup_frames)
        fast = _emit_interleaved(_VIDEOS[video](_N_LONG_VIDEO_FRAMES), *args)
        reference_chain()
        slow = _emit_interleaved(_VIDEOS[video](_N_LONG_VIDEO_FRAMES), *args)
        assert len(fast) == len(slow) == len(_INTERLEAVED)
        for got, want in zip(fast, slow):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("config", ["base", "gamma-comp", "tau10"])
    @pytest.mark.parametrize("video", list(_VIDEOS))
    def test_interleaved_reads_under_slow_lc(self, video, config, reference_chain):
        self._interleaved_matches_reference(video, config, reference_chain)

    @pytest.mark.parametrize("config", ["base", "gamma-comp", "tau10"])
    @pytest.mark.parametrize("video", list(_VIDEOS))
    def test_interleaved_reads_after_shallow_rewarms(self, video, config, reference_chain):
        # A re-warm of the panel's depth reproduces the walked state to
        # 1e-10, so a lag reused across it would not show.  Eight frames
        # leave exp(-8 * 8.3 / 50) = 26 % of the old state, and it does.
        self._interleaved_matches_reference(video, config, reference_chain, warmup_frames=8)

    @pytest.mark.parametrize("value", [0, 127, 255, 3.5, np.float32(200.25)])
    def test_to_luminance_keeps_scalar_math(self, value):
        curve = GammaCurve()
        got = curve.to_luminance(value)
        want = reference_to_luminance(curve, value)
        assert type(got) is type(want) is np.float32
        assert got == want

    def test_expand_block_grid(self):
        geometry = MultiplexedStream(
            _BASE, _VIDEOS["gray"](), PseudoRandomSchedule(_BASE, seed=4)
        ).geometry
        grids = (
            np.random.default_rng(0).random((4, 6)) < 0.5,
            np.random.default_rng(1).uniform(-2.0, 2.0, (4, 6)),
            np.random.default_rng(2).uniform(0.0, 1.0, (4, 6)).astype(np.float32),
        )
        for grid in grids:
            got = geometry.expand_block_grid(grid)
            assert got.dtype == np.float32
            assert np.array_equal(got, reference_expand_block_grid(geometry, grid))

    def test_pairs_share_one_read_only_field(self):
        video = pure_color_video(_H, _W, 127.0, n_frames=64)
        stream = MultiplexedStream(_BASE, video, PseudoRandomSchedule(_BASE, seed=4))
        calls = Counter()
        modulation_field = stream.encoder.modulation_field

        def counted(*args):
            calls["modulation_field"] += 1
            return modulation_field(*args)

        stream.encoder.modulation_field = counted
        for index in range(stream.n_frames):
            stream.frame(index)
        # The gray frame is one read-only array, so only the envelope counts.
        # Per tau=12 cycle it changes at steps 6, 8 and 10, and step 10's
        # finished crossfade holds the next data frame, which the next
        # cycle's steps 0-5 show too: 3 fields per 12 frames.
        assert (calls["modulation_field"], stream.n_frames) == (64, 256)
        pair = stream._pair
        assert pair.compensation is None
        assert not pair.modulation.flags.writeable
        assert not any(frame.flags.writeable for frame in pair.frames)

    def test_repeated_frames_are_the_same_array(self):
        stream = MultiplexedStream(
            _BASE, pure_color_video(_H, _W, 127.0, n_frames=9), PseudoRandomSchedule(_BASE, seed=4)
        )
        frames = [stream.frame(index) for index in range(24)]
        # Steps 0-5 of a cycle hold its data frame; steps 10-11 hold the next
        # one, exactly as the next cycle's steps 0-5 do.
        assert all(frames[step] is frames[step % 2] for step in range(6))
        assert frames[10] is not frames[0]
        assert all(frames[step] is frames[10 + step % 2] for step in range(12, 18))
        assert frames[6] is not frames[8] and frames[1] is not frames[0]

    def test_timeline_gamma_maps_each_distinct_frame_once(self, monkeypatch):
        stream = MultiplexedStream(
            _BASE, pure_color_video(_H, _W, 127.0, n_frames=9), PseudoRandomSchedule(_BASE, seed=4)
        )
        frames = [stream.frame(index) for index in range(stream.n_frames)]
        distinct = {id(frame) for frame in frames}
        timeline = DisplayTimeline(_PANELS["lc"], stream)
        calls = Counter()
        emitted_luminance = DisplayPanel.emitted_luminance

        def counted(panel, frame):
            calls["emitted_luminance"] += 1
            return emitted_luminance(panel, frame)

        monkeypatch.setattr(DisplayPanel, "emitted_luminance", counted)
        for index in range(stream.n_frames):
            timeline.frame_average_luminance(index)
        assert calls["emitted_luminance"] == len(distinct) < stream.n_frames

    @pytest.mark.parametrize("panel", ["lc", "no-lc"])
    def test_sampler_takes_each_distinct_target_once(self, panel, monkeypatch):
        stream = MultiplexedStream(
            _BASE, pure_color_video(_H, _W, 127.0, n_frames=9), PseudoRandomSchedule(_BASE, seed=4)
        )
        timeline = DisplayTimeline(_PANELS[panel], stream)
        interval = timeline.panel.frame_interval_s
        calls = Counter()
        distinct_rows = DisplayTimeline._distinct_rows
        emitted_luminance = DisplayPanel.emitted_luminance

        def counted_take(self, values):
            calls["take"] += 1
            return distinct_rows(self, values)

        def counted_luminance(self, frame):
            calls["target"] += 1
            return emitted_luminance(self, frame)

        monkeypatch.setattr(DisplayTimeline, "_distinct_rows", counted_take)
        monkeypatch.setattr(DisplayPanel, "emitted_luminance", counted_luminance)
        for index in range(stream.n_frames):
            timeline.luminance_rows([(index + (k + 0.5) / 4) * interval for k in range(4)])
        # Read in order, each frame's target is a fresh luminance or a reused
        # one, so the gamma calls count the distinct targets.  With the LC
        # response each frame also takes its lag through the rows.
        lags = stream.n_frames if panel == "lc" else 0
        assert calls["target"] < stream.n_frames
        assert calls["take"] == lags + calls["target"]


def _dense_source(video) -> FunctionVideoSource:
    """*video* served through a source the palette rule rejects."""
    return FunctionVideoSource(
        video.height, video.width, video.frame, fps=video.fps, n_frames=video.n_frames
    )


class TestPalettePath:
    @staticmethod
    def _run(video, monkeypatch) -> tuple[object, list[tuple[int, ...]]]:
        """A quick-scale link run, with the shape of every frame the panel gamma-maps."""
        quick = replace(ExperimentScale.quick(), n_video_frames=12)
        shapes = []
        emitted_luminance = DisplayPanel.emitted_luminance

        def recorded(panel, frame):
            shapes.append(np.shape(frame))
            return emitted_luminance(panel, frame)

        monkeypatch.setattr(DisplayPanel, "emitted_luminance", recorded)
        run = run_link(quick.config(), video, camera=quick.camera(), seed=5)
        monkeypatch.undo()
        return run, shapes

    @staticmethod
    def _decoded(run) -> list[tuple[int, bytes, bytes, bytes]]:
        return [
            (f.index, f.bits.tobytes(), f.gob_available.tobytes(), f.gob_parity_ok.tobytes())
            for f in run.decoded
        ]

    def test_gray_link_emits_no_full_frame_and_decodes_the_same_bits(self, monkeypatch):
        quick = replace(ExperimentScale.quick(), n_video_frames=12)
        gray = quick.video("gray")
        full = (gray.height, gray.width)
        palette_run, palette_shapes = self._run(gray, monkeypatch)
        dense_run, dense_shapes = self._run(_dense_source(gray), monkeypatch)
        assert palette_shapes and full not in palette_shapes
        assert dense_shapes and set(dense_shapes) == {full}
        assert self._decoded(palette_run) == self._decoded(dense_run)
        assert palette_run.stats == dense_run.stats

    def test_textured_link_stays_full_resolution(self, monkeypatch):
        quick = replace(ExperimentScale.quick(), n_video_frames=12)
        video = quick.video("video")
        _, shapes = self._run(video, monkeypatch)
        assert shapes and set(shapes) == {(video.height, video.width)}


class TestReadOnlyArrays:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: pure_color_video(_H, _W, 127.0, n_frames=3),
            lambda: LoopingVideoSource(pure_color_video(_H, _W, 127.0, n_frames=1), 3),
            lambda: gradient_video(_H, _W, n_frames=3),
            lambda: checker_texture_video(_H, _W, n_frames=3),
            lambda: rgb_color_video(_H, _W, (127.0, 60.0, 200.0), n_frames=3),
            lambda: noise_video(_H, _W, n_frames=3),
            lambda: ArrayVideoSource(np.full((3, _H, _W), 90.0, dtype=np.float32)),
        ],
    )
    def test_video_frames_are_read_only(self, make):
        source = make()
        for index in (0, 1, 1, 2):
            frame = source.frame(index)
            kept = frame.copy()
            with pytest.raises(ValueError):
                frame[0, 0] = 0.0
            assert np.array_equal(source.frame(index), kept)

    @pytest.mark.parametrize("make", [gradient_video, checker_texture_video])
    def test_static_clips_reuse_their_fields(self, make):
        # One read-only frame at every index: the stream renders a field per
        # envelope only, as for the gray clip (test_pairs_share_one_read_only_field).
        video = make(_H, _W, n_frames=64)
        stream = MultiplexedStream(_BASE, video, PseudoRandomSchedule(_BASE, seed=4))
        calls = Counter()
        modulation_field = stream.encoder.modulation_field

        def counted(*args):
            calls["modulation_field"] += 1
            return modulation_field(*args)

        stream.encoder.modulation_field = counted
        for index in range(stream.n_frames):
            stream.frame(index)
        assert (calls["modulation_field"], stream.n_frames) == (64, 256)

    @pytest.mark.parametrize("panel", ["lc", "no-lc"])
    @pytest.mark.parametrize("video", ["gray", "sunrise"])
    def test_writes_raise_or_stay_private(self, video, panel):
        # Shared and cached arrays refuse the write; a fresh array takes it,
        # and no later read sees it: the outputs equal a clean run's.
        def scribble(output: np.ndarray) -> np.ndarray:
            kept = output.copy()
            if output.flags.writeable:
                output += 1.0
            else:
                with pytest.raises(ValueError):
                    output += 1.0
            return kept

        args = (_BASE, _PANELS[panel])
        scribbled = _emit_everything(_VIDEOS[video](), *args, seen=scribble)
        clean = _emit_everything(_VIDEOS[video](), *args)
        assert len(scribbled) == len(clean)
        assert all(np.array_equal(got, want) for got, want in zip(scribbled, clean))
        # Display frames and frame averages are shared, so always read-only.
        stream, timeline = _stream_and_timeline(_VIDEOS[video](), *args)
        memo = MemoizedTimeline(timeline, key_fn=lambda index: index)
        shared = [stream.frame(5), timeline.frame_average_luminance(5)]
        shared += [memo.frame_average_luminance(7), memo.frame_average_luminance(7)]
        assert not any(array.flags.writeable for array in shared)
