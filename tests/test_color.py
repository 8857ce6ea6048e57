"""RGB colour support across the pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoder import DataFrameEncoder
from repro.core.framing import PseudoRandomSchedule
from repro.core.geometry import FrameGeometry
from repro.core.multiplexer import MultiplexedStream
from repro.core.pipeline import InFrameSender, run_link
from repro.display.panel import DisplayPanel
from repro.video.source import ArrayVideoSource
from repro.video.synthetic import rgb_color_video, rgb_sunrise_video, sunrise_video


@pytest.fixture
def color_video(small_config):
    return rgb_color_video(80, 112, (127.0, 127.0, 127.0), n_frames=12)


class TestColorSources:
    def test_rgb_color_shape_and_channels(self, color_video):
        assert color_video.channels == 3
        assert color_video.frame(0).shape == (80, 112, 3)

    def test_rgb_color_validation(self):
        with pytest.raises(ValueError):
            rgb_color_video(8, 8, (300.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            rgb_color_video(8, 8, (1.0, 2.0))

    def test_rgb_sunrise_channels_differ(self):
        frame = rgb_sunrise_video(60, 90, n_frames=4).frame(0)
        assert frame.shape == (60, 90, 3)
        # The sky is graded cool: blue above red near the top.
        top = frame[5]
        assert float(top[:, 2].mean()) > float(top[:, 0].mean())

    def test_rgb_sunrise_luminance_tracks_gray(self):
        gray = sunrise_video(60, 90, n_frames=4, grain_std=0.0).frame(1)
        color = rgb_sunrise_video(60, 90, n_frames=4, grain_std=0.0).frame(1)
        # Channel-mean of the graded clip stays within ~20% of the gray clip.
        ratio = color.mean() / gray.mean()
        assert 0.75 < ratio < 1.25

    def test_array_source_accepts_color(self):
        frames = np.zeros((2, 4, 4, 3), dtype=np.float32)
        source = ArrayVideoSource(frames)
        assert source.channels == 3

    def test_array_source_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            ArrayVideoSource(np.zeros((2, 4, 4, 2), dtype=np.float32))

    def test_base_source_rejects_bad_channels(self):
        from repro.video.source import VideoSource

        with pytest.raises(ValueError):
            VideoSource(4, 4, 30.0, 1, channels=2)


class TestColorEncoding:
    def test_pair_complementary_per_channel(self, small_config, color_video):
        geometry = FrameGeometry(small_config, 80, 112)
        encoder = DataFrameEncoder(small_config, geometry)
        bits = PseudoRandomSchedule(small_config).bits(0)
        frame = color_video.frame(0)
        plus, minus = encoder.multiplexed_pair(frame, bits)
        assert plus.shape == frame.shape
        assert np.allclose((plus + minus) / 2.0, frame, atol=1e-4)

    def test_same_modulation_on_every_channel(self, small_config, color_video):
        geometry = FrameGeometry(small_config, 80, 112)
        encoder = DataFrameEncoder(small_config, geometry)
        bits = np.ones((small_config.block_rows, small_config.block_cols), bool)
        plus, _ = encoder.multiplexed_pair(color_video.frame(0), bits)
        diff = plus - color_video.frame(0)
        assert np.allclose(diff[..., 0], diff[..., 1])
        assert np.allclose(diff[..., 1], diff[..., 2])

    def test_headroom_bound_by_extreme_channel(self, small_config):
        geometry = FrameGeometry(small_config, 80, 112)
        encoder = DataFrameEncoder(small_config, geometry)
        # Red nearly saturated: amplitude must respect 255 - 250 = 5.
        video = rgb_color_video(80, 112, (250.0, 127.0, 127.0), n_frames=1).frame(0)
        bits = np.ones((small_config.block_rows, small_config.block_cols), bool)
        field = encoder.modulation_field(video, bits)
        assert field.max() <= 5.0 + 1e-5

    def test_multiplexed_stream_color_frames(self, small_config, color_video):
        stream = MultiplexedStream(
            small_config, color_video, PseudoRandomSchedule(small_config)
        )
        frame = stream.frame(0)
        assert frame.shape == (80, 112, 3)
        pair_mean = (stream.frame(0) + stream.frame(1)) / 2.0
        assert np.allclose(pair_mean, color_video.frame(0), atol=1e-4)


class TestColorDisplayAndLink:
    def test_panel_luminance_uses_rec709_luma(self):
        panel = DisplayPanel(width=4, height=4)
        green = np.zeros((4, 4, 3), np.float32)
        green[..., 1] = 200.0
        blue = np.zeros((4, 4, 3), np.float32)
        blue[..., 2] = 200.0
        assert float(panel.emitted_luminance(green).mean()) > float(
            panel.emitted_luminance(blue).mean()
        )

    def test_gray_rgb_matches_grayscale_luminance(self):
        panel = DisplayPanel(width=4, height=4)
        gray = np.full((4, 4), 127.0, np.float32)
        rgb = np.full((4, 4, 3), 127.0, np.float32)
        assert np.allclose(
            panel.emitted_luminance(gray), panel.emitted_luminance(rgb), rtol=1e-5
        )

    def test_color_link_end_to_end(self, small_config, color_video, small_camera):
        run = run_link(small_config, color_video, camera=small_camera, seed=5)
        assert run.stats.bit_accuracy > 0.8

    def test_color_timeline_luminance_is_2d(self, small_config, color_video):
        sender = InFrameSender(small_config, color_video)
        lum = sender.timeline().luminance_at(0.05)
        assert lum.ndim == 2
