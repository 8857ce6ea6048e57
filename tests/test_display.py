"""Display substrate: gamma curve, panel model, timeline/scheduler."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentScale
from repro.core.pipeline import run_link
from repro.display.gamma import GammaCurve
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.video.source import ArrayVideoSource


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
        frames = np.stack([np.full((4, 6), float(v), np.float32) for v in range(20)])
        panel = DisplayPanel(width=6, height=4, refresh_hz=120.0)
        timeline = DisplayTimeline(
            panel, ArrayVideoSource(frames, fps=120.0), cache_frames=3
        )
        for index in range(20):
            timeline.frame_average_luminance(index)
        assert len(timeline._lum_cache) <= 3
        assert len(timeline._avg_cache) <= 3

    def test_cache_disabled_still_exact(self):
        cached = _two_frame_timeline(response_time_s=0.004)
        panel = DisplayPanel(width=6, height=4, refresh_hz=120.0, response_time_s=0.004)
        frames = np.stack(
            [np.full((4, 6), 50.0, np.float32), np.full((4, 6), 200.0, np.float32)] * 4
        )
        uncached = DisplayTimeline(
            panel, ArrayVideoSource(frames, fps=120.0), cache_frames=0
        )
        for index in range(4):
            assert np.allclose(
                cached.frame_average_luminance(index),
                uncached.frame_average_luminance(index),
            )
        assert not uncached._lum_cache and not uncached._avg_cache

    def test_rejects_negative_cache_frames(self):
        frames = np.stack([np.full((4, 6), 50.0, np.float32)] * 2)
        panel = DisplayPanel(width=6, height=4)
        with pytest.raises(ValueError):
            DisplayTimeline(panel, ArrayVideoSource(frames, fps=120.0), cache_frames=-1)


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
