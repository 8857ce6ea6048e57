"""Edge cases and less-travelled paths across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.camera.capture import CameraModel
from repro.core.config import InFrameConfig
from repro.core.framing import PseudoRandomSchedule, ZeroSchedule
from repro.core.multiplexer import MultiplexedStream
from repro.display.gamma import GammaCurve
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.tools.budget import PANEL_REFLECTANCE, link_budget
from repro.video.source import ArrayVideoSource
from repro.video.synthetic import gradient_video, pure_color_video


class TestSchedulerEdges:
    def _timeline(self, n=80, response=0.002):
        rng = np.random.default_rng(0)
        frames = rng.uniform(40, 200, (n, 6, 8)).astype(np.float32)
        panel = DisplayPanel(width=8, height=6, refresh_hz=120.0, response_time_s=response)
        return DisplayTimeline(panel, ArrayVideoSource(frames, fps=120.0))

    def test_far_backward_jump_rewarm(self):
        timeline = self._timeline()
        late = float(timeline.luminance_at(0.6).mean())
        early = float(timeline.luminance_at(0.05).mean())
        late_again = float(timeline.luminance_at(0.6).mean())
        assert late == pytest.approx(late_again, rel=1e-4)
        assert early != late or True  # early value must simply not crash

    def test_integrate_beyond_stream_holds_last_frame(self):
        timeline = self._timeline(n=8, response=0.0)
        beyond = timeline.integrate(timeline.duration_s + 0.01, timeline.duration_s + 0.02)
        last = timeline.luminance_at(timeline.duration_s - 1e-5)
        assert np.allclose(beyond, last, rtol=0.02)

    def test_latch_time(self):
        timeline = self._timeline(n=8)
        assert timeline.latch_time(3) == pytest.approx(3 / 120)

    def test_avg_cache_eviction_consistent(self):
        timeline = self._timeline(n=80)
        first = timeline.frame_average_luminance(2).copy()
        for index in range(3, 60):  # churn the cache far past its size
            timeline.frame_average_luminance(index)
        again = timeline.frame_average_luminance(2)
        assert np.allclose(first, again)


class TestGammaEdges:
    def test_curvature_positive_for_convex_curve(self):
        curve = GammaCurve(gamma=2.2)
        assert float(curve.local_curvature(127.0)) > 0.0

    def test_curvature_matches_numeric_second_derivative(self):
        curve = GammaCurve()
        v, eps = 127.0, 0.5
        numeric = (
            float(curve.to_luminance(v + eps))
            - 2 * float(curve.to_luminance(v))
            + float(curve.to_luminance(v - eps))
        ) / eps**2
        assert float(curve.local_curvature(v)) == pytest.approx(numeric, rel=1e-2)


class TestConfigEdges:
    def test_display_frames_alias(self):
        config = InFrameConfig(tau=10)
        assert config.display_frames_per_data_frame() == 10

    def test_gob_size_three_xor_bit_budget(self):
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=2, gob_size=3,
            block_rows=6, block_cols=9, tau=12,
        )
        assert config.bits_per_gob == 8
        assert config.bits_per_frame == 48  # 6 GOBs x 8 bits

    def test_scaled_validation_still_runs(self):
        with pytest.raises(ValueError):
            InFrameConfig(tau=10).scaled(-1.0)


class TestMultiplexerEdges:
    def test_gradient_content_never_leaves_range(self, small_config):
        video = gradient_video(80, 112, low=0.0, high=255.0, n_frames=3)
        stream = MultiplexedStream(small_config, video, PseudoRandomSchedule(small_config))
        for t in range(8):
            frame = stream.frame(t)
            assert frame.min() >= 0.0 and frame.max() <= 255.0

    def test_gamma_compensated_stream_stays_complementary_about_base(self, small_config):
        config = small_config.with_updates(gamma_compensation=True, amplitude=30.0)
        video = pure_color_video(80, 112, 127.0, n_frames=3)
        stream = MultiplexedStream(config, video, PseudoRandomSchedule(config))
        pair_mean = (stream.frame(0) + stream.frame(1)) / 2.0
        # Pair mean equals V + c <= V (c is the negative convexity shift).
        assert float(pair_mean.max()) <= 127.0 + 1e-4
        assert float(pair_mean.min()) >= 127.0 - 6.0  # c ~ -(gamma-1) M^2 / 2v


class TestLinkEdges:
    def test_budget_extreme_operating_points(self):
        panel = DisplayPanel(width=16, height=12)
        pedestal = 400.0 * PANEL_REFLECTANCE / np.pi
        camera = CameraModel(width=8, height=6).auto_exposed(
            panel.gamma_curve.peak_luminance * panel.brightness + pedestal
        )
        dim = link_budget(panel, camera, pedestal, 5.0)
        bright = link_budget(panel, camera, pedestal, 250.0)
        assert np.isfinite(dim.snr_at_delta_20)
        assert np.isfinite(bright.snr_at_delta_20)

    def test_zero_ambient_contrast_loss(self):
        budget = link_budget(
            DisplayPanel(width=16, height=12), CameraModel(width=8, height=6), 0.0, 127.0
        )
        assert budget.ambient_contrast_loss == 0.0


class TestZeroScheduleStream:
    def test_zero_schedule_timeline_is_static_per_video_frame(self, small_config):
        video = pure_color_video(80, 112, 127.0, n_frames=3)
        stream = MultiplexedStream(small_config, video, ZeroSchedule(small_config))
        assert np.array_equal(stream.frame(0), stream.frame(1))
        assert np.array_equal(stream.frame(0), stream.frame(7))
