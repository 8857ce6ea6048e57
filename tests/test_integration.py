"""End-to-end integration: multiplex -> display -> capture -> decode.

These tests run the whole loop at a reduced scale and assert the
qualitative properties the paper reports, not exact numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.camera.capture import CameraModel
from repro.core.config import InFrameConfig
from repro.core.framing import PayloadSchedule
from repro.core.pipeline import InFrameSender, run_link
from repro.video.synthetic import pure_color_video, sunrise_video


@pytest.fixture(scope="module")
def link_config() -> InFrameConfig:
    """A mid-size config with the paper's p = 4 (pattern survives capture)."""
    return InFrameConfig(
        element_pixels=4, pixels_per_block=3, block_rows=16, block_cols=24,
        amplitude=20.0, tau=12,
    )


@pytest.fixture(scope="module")
def link_camera() -> CameraModel:
    return CameraModel(width=384, height=216)


@pytest.fixture(scope="module")
def gray_run(link_config, link_camera):
    video = pure_color_video(324, 576, 127.0, n_frames=24)
    return run_link(link_config, video, camera=link_camera, seed=3)


class TestGrayLink:
    def test_high_bit_accuracy(self, gray_run):
        assert gray_run.stats.bit_accuracy > 0.9

    def test_availability_and_errors(self, gray_run):
        assert gray_run.stats.available_gob_ratio > 0.6
        assert gray_run.stats.gob_error_rate < 0.15

    def test_throughput_positive_and_bounded(self, gray_run, link_config):
        assert 0 < gray_run.stats.throughput_bps <= link_config.raw_bit_rate_bps

    def test_decoded_frames_cover_stream(self, gray_run):
        indices = [d.index for d in gray_run.decoded]
        assert indices == sorted(indices)
        assert len(indices) >= 4

    def test_run_is_deterministic(self, link_config, link_camera):
        video = pure_color_video(324, 576, 127.0, n_frames=12)
        a = run_link(link_config, video, camera=link_camera, seed=7)
        b = run_link(link_config, video, camera=link_camera, seed=7)
        assert a.stats.bit_accuracy == b.stats.bit_accuracy

    def test_seed_changes_noise_realisation(self, link_config, link_camera):
        video = pure_color_video(324, 576, 127.0, n_frames=12)
        a = run_link(link_config, video, camera=link_camera, seed=1)
        b = run_link(link_config, video, camera=link_camera, seed=2)
        assert not np.array_equal(a.captures[0].pixels, b.captures[0].pixels)


class TestContentDependence:
    def test_textured_video_degrades_channel(self, link_config, link_camera):
        gray = pure_color_video(324, 576, 127.0, n_frames=24)
        textured = sunrise_video(324, 576, n_frames=24, grain_std=10.0)
        stats_gray = run_link(link_config, gray, camera=link_camera, seed=3).stats
        stats_tex = run_link(link_config, textured, camera=link_camera, seed=3).stats
        assert stats_tex.bit_accuracy < stats_gray.bit_accuracy
        assert stats_tex.available_gob_ratio <= stats_gray.available_gob_ratio + 0.02

    def test_larger_amplitude_helps_textured_content(self, link_config, link_camera):
        textured = sunrise_video(324, 576, n_frames=24, grain_std=10.0)
        weak = run_link(link_config, textured, camera=link_camera, seed=3).stats
        strong_config = link_config.with_updates(amplitude=35.0)
        strong = run_link(strong_config, textured, camera=link_camera, seed=3).stats
        assert strong.bit_accuracy > weak.bit_accuracy


class TestPayloadDelivery:
    def test_payload_roundtrip_over_camera_link(self, link_config, link_camera):
        payload = b"InFrame end-to-end payload over the simulated optical link!"
        video = pure_color_video(324, 576, 127.0, n_frames=48)
        schedule = PayloadSchedule(link_config, payload, rs_n=40, rs_k=16)
        run = run_link(
            link_config, video, camera=link_camera, schedule=schedule, seed=5
        )
        received = run.receiver.assemble_payload(run.decoded)
        assert received == payload

    def test_receiver_without_plan_rejects_assembly(self, link_config, link_camera):
        video = pure_color_video(324, 576, 127.0, n_frames=12)
        run = run_link(link_config, video, camera=link_camera, seed=5)
        with pytest.raises(ValueError):
            run.receiver.assemble_payload(run.decoded)


class TestRunLinkValidation:
    def test_stream_too_short(self, link_config, link_camera):
        video = pure_color_video(324, 576, 127.0, n_frames=1)
        with pytest.raises(ValueError):
            run_link(link_config, video, camera=link_camera)

    def test_panel_video_mismatch(self, link_config):
        from repro.display.panel import DisplayPanel

        video = pure_color_video(324, 576, 127.0, n_frames=8)
        panel = DisplayPanel(width=100, height=100)
        with pytest.raises(ValueError):
            InFrameSender(link_config, video, panel=panel)

    def test_refresh_mismatch(self, link_config):
        from repro.display.panel import DisplayPanel

        video = pure_color_video(324, 576, 127.0, n_frames=8)
        panel = DisplayPanel(width=576, height=324, refresh_hz=60.0)
        with pytest.raises(ValueError):
            InFrameSender(link_config, video, panel=panel)

    def test_default_camera_auto_exposed(self, link_config):
        video = pure_color_video(324, 576, 127.0, n_frames=12)
        run = run_link(link_config, video, seed=0, n_camera_frames=10)
        # The default paper camera is auto-exposed: captures are not saturated.
        assert float(run.captures[0].pixels.max()) < 255.0
