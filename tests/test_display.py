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
from repro.display.scheduler import DisplayTimeline
from repro.video.source import ArrayVideoSource
from repro.video.synthetic import (
    gradient_video,
    pure_color_video,
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
        wave = timeline.region_waveform(times)
        assert wave.shape == (16,)
        pixel = timeline.pixel_waveform(times, 0, 0)
        assert pixel.shape == (16,)
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
    """``DisplayTimeline._state_before`` (the test oracle)."""
    if index == 0:
        return timeline._frame_luminance(0)
    if timeline._state is not None and timeline._state_index == index:
        return timeline._state
    if (
        timeline._state is None
        or timeline._state_index > index
        or timeline._state_index < index - 64
    ):
        start = max(index - timeline._WARMUP_FRAMES, 0)
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
    "gray": lambda: pure_color_video(_H, _W, 127.0, n_frames=_N_VIDEO_FRAMES),
    "bright": lambda: pure_color_video(_H, _W, 245.0, n_frames=_N_VIDEO_FRAMES),
    "sunrise": lambda: sunrise_video(_H, _W, n_frames=_N_VIDEO_FRAMES),
    "rgb-sunrise": lambda: rgb_sunrise_video(_H, _W, n_frames=_N_VIDEO_FRAMES),
    "gradient": lambda: gradient_video(_H, _W, n_frames=_N_VIDEO_FRAMES),
}
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
}
_PANELS = {
    "lc": DisplayPanel(width=_W, height=_H),
    "no-lc": DisplayPanel(width=_W, height=_H, response_time_s=0.0),
    "dim": DisplayPanel(width=_W, height=_H, brightness=0.6),
}


def _emit_everything(video, config: InFrameConfig, panel: DisplayPanel) -> list[np.ndarray]:
    """Display frames, frame averages, samples and windows, in ``_ORDER``."""
    stream = MultiplexedStream(
        config, video, PseudoRandomSchedule(config, seed=4), gamma_curve=panel.gamma_curve
    )
    timeline = DisplayTimeline(panel, stream)
    interval = panel.frame_interval_s
    outputs = [stream.frame(i) for i in _ORDER]
    outputs += [timeline.frame_average_luminance(i) for i in _ORDER]
    outputs += [timeline.luminance_at((i + 0.4) * interval) for i in _ORDER]
    outputs += [timeline.integrate((i + 0.2) * interval, (i + 2.7) * interval) for i in _ORDER]
    crop = (2, 14, 3, 21)
    outputs += [timeline.integrate(i * interval, (i + 1.5) * interval, crop) for i in _ORDER]
    return outputs


class TestDisplayEmitOracle:
    @pytest.fixture
    def reference_chain(self, monkeypatch):
        def swap():
            monkeypatch.setattr(MultiplexedStream, "frame", reference_frame)
            monkeypatch.setattr(DataFrameEncoder, "modulation_field", reference_modulation_field)
            monkeypatch.setattr(GammaCurve, "to_luminance", reference_to_luminance)
            monkeypatch.setattr(DisplayPanel, "emitted_luminance", reference_emitted_luminance)
            monkeypatch.setattr(DisplayTimeline, "luminance_at", reference_luminance_at)
            monkeypatch.setattr(DisplayTimeline, "integrate", reference_integrate)
            monkeypatch.setattr(DisplayTimeline, "_state_before", reference_state_before)

        return swap

    @pytest.mark.parametrize("panel", list(_PANELS))
    @pytest.mark.parametrize("config", list(_CONFIGS))
    @pytest.mark.parametrize("video", list(_VIDEOS))
    def test_every_field_is_identical(self, video, config, panel, reference_chain):
        # The in-place outputs are compared only after every read, so a
        # write into a cached or shared array would show up here too.
        fast = _emit_everything(_VIDEOS[video](), _CONFIGS[config], _PANELS[panel])
        reference_chain()
        slow = _emit_everything(_VIDEOS[video](), _CONFIGS[config], _PANELS[panel])
        assert len(fast) == len(slow)
        for got, want in zip(fast, slow):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)

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
        # Per tau=12 cycle the inputs change at steps 0, 4 and 8 (video
        # frame) and at 6, 8 and 10 (envelope): 5 fields per 12 frames.
        assert (calls["modulation_field"], stream.n_frames) == (106, 256)
        _, modulation, compensation = stream._fields_memo
        assert compensation is None
        assert not modulation.flags.writeable
