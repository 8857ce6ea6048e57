"""Baselines: naive designs, QR region, LSB steganography, hue shift."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.hue_shift import HueShiftScheme
from repro.baselines.lsb_stego import LSBSteganography
from repro.baselines.naive import NaiveDesign, NaiveScheme
from repro.baselines.qr_region import QRRegionLayout, QRRegionScheme
from repro.camera.capture import CameraModel
from repro.core.framing import PseudoRandomSchedule
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.video.synthetic import pure_color_video


class TestNaiveDesigns:
    def test_patterns(self):
        assert NaiveDesign.AGGRESSIVE.pattern == "VDDD"
        assert NaiveDesign.INTERLEAVED.pattern == "VDVD"
        assert NaiveDesign.RATIO_2_2.pattern == "VVDD"
        assert NaiveDesign.RATIO_3_1.pattern == "VVVD"

    def test_video_slots_show_plain_video(self, small_config, small_video):
        scheme = NaiveScheme(
            small_config, small_video, PseudoRandomSchedule(small_config), NaiveDesign.INTERLEAVED
        )
        assert np.array_equal(scheme.frame(0), small_video.frame(0))
        assert np.array_equal(scheme.frame(2), small_video.frame(0))

    def test_data_slots_modulated_without_complementarity(self, small_config, small_video):
        scheme = NaiveScheme(
            small_config, small_video, PseudoRandomSchedule(small_config), NaiveDesign.INTERLEAVED
        )
        d1 = scheme.frame(1) - small_video.frame(0)
        d3 = scheme.frame(3) - small_video.frame(0)
        assert np.abs(d1).max() > 0
        # Consecutive data slots use *different* data frames (D1, D2, ...),
        # so they do not cancel -- the design's fatal flaw.
        assert not np.allclose(d1, -d3)

    def test_aggressive_consumes_three_data_frames_per_video_frame(
        self, small_config, small_video
    ):
        scheme = NaiveScheme(
            small_config, small_video, PseudoRandomSchedule(small_config), NaiveDesign.AGGRESSIVE
        )
        assert scheme._data_index(0, 1) == 0
        assert scheme._data_index(0, 3) == 2
        assert scheme._data_index(1, 1) == 3

    def test_requires_four_slots(self, small_config):
        video = pure_color_video(80, 112, 127.0, fps=60.0, n_frames=4)
        config = small_config.with_updates(video_fps=60.0)
        with pytest.raises(ValueError):
            NaiveScheme(config, video, PseudoRandomSchedule(config))

    def test_naive_flickers_more_than_inframe(self, small_config, small_video):
        from repro.core.pipeline import InFrameSender
        from repro.hvs.flicker import FlickerPredictor

        predictor = FlickerPredictor(grid=(8, 12))
        sender = InFrameSender(small_config, small_video)
        inframe_score = predictor.report(sender.timeline(), duration_s=0.3).score
        naive = NaiveScheme(
            small_config, small_video, PseudoRandomSchedule(small_config), NaiveDesign.INTERLEAVED
        )
        panel = DisplayPanel(width=112, height=80, refresh_hz=120.0)
        naive_score = predictor.report(DisplayTimeline(panel, naive), duration_s=0.3).score
        assert naive_score > inframe_score + 0.5


class TestQRRegion:
    def test_occluded_fraction_near_layout(self):
        video = pure_color_video(120, 160, 127.0, n_frames=4)
        scheme = QRRegionScheme(video, QRRegionLayout(area_fraction=0.1, cells=20))
        assert scheme.occluded_fraction() == pytest.approx(0.1, abs=0.05)

    def test_barcode_visible_in_frame(self):
        video = pure_color_video(120, 160, 127.0, n_frames=4)
        scheme = QRRegionScheme(video)
        frame = scheme.frame(0)
        region = frame[-scheme.region_side :, -scheme.region_side :]
        assert set(np.unique(region)) == {0.0, 255.0}

    def test_barcode_changes_on_schedule(self):
        video = pure_color_video(120, 160, 127.0, n_frames=8)
        scheme = QRRegionScheme(video, QRRegionLayout(refresh_divider=2))
        assert scheme.barcode_index(0) == scheme.barcode_index(7)  # frames 0-7 = video 0-1
        assert scheme.barcode_index(0) != scheme.barcode_index(8)

    def test_raw_bit_rate(self):
        video = pure_color_video(120, 160, 127.0, n_frames=4)
        scheme = QRRegionScheme(video, QRRegionLayout(cells=30, refresh_divider=2))
        assert scheme.raw_bit_rate_bps(30.0) == pytest.approx(900 * 15)

    def test_camera_decode_recovers_barcode(self):
        video = pure_color_video(240, 320, 127.0, n_frames=8)
        scheme = QRRegionScheme(video, QRRegionLayout(area_fraction=0.12, cells=12))
        panel = DisplayPanel(width=320, height=240, refresh_hz=120.0)
        camera = CameraModel(width=214, height=160, exposure_s=1 / 500)
        timeline = DisplayTimeline(panel, scheme)
        capture = camera.capture_frame(
            timeline, 1, noise=camera.draw_noise(np.random.default_rng(0))
        )
        decoded = scheme.decode_capture(capture, (160, 214))
        truth = scheme.barcode(scheme.barcode_index(4))
        accuracy = float((decoded == truth).mean())
        assert accuracy > 0.95


class TestLSBStego:
    def test_embed_boundary_pixels_never_wrap(self):
        # Regression for the DT002 finding: embed() used to cast
        # round(frame) straight to uint8.  check_frame tolerates values a
        # hair above 255.0, so the cast must clip first -- a wrapped cast
        # would flip a white pixel to black.  Pins the corrected values.
        stego = LSBSteganography()
        frame = np.array([[255.0005, 0.0], [128.0, 64.0]], dtype=np.float64)
        bits = np.ones(4, dtype=bool)
        carrier = stego.embed(frame, bits)
        assert carrier.tolist() == [[255.0, 1.0], [129.0, 65.0]]

    def test_file_to_file_roundtrip(self):
        stego = LSBSteganography()
        frame = pure_color_video(32, 32, 127.0, n_frames=1).frame(0)
        bits = np.random.default_rng(0).random(256) < 0.5
        carrier = stego.embed(frame, bits)
        recovered = stego.extract(carrier, 256)
        assert np.array_equal(recovered, bits)

    def test_embedding_is_visually_negligible(self):
        stego = LSBSteganography()
        frame = pure_color_video(32, 32, 127.0, n_frames=1).frame(0)
        bits = np.ones(1024, dtype=bool)
        carrier = stego.embed(frame, bits)
        assert np.abs(carrier - frame).max() <= 1.0

    def test_capacity_enforced(self):
        stego = LSBSteganography()
        frame = pure_color_video(4, 4, 127.0, n_frames=1).frame(0)
        with pytest.raises(ValueError):
            stego.embed(frame, np.ones(17, dtype=bool))

    def test_multi_plane(self):
        stego = LSBSteganography(bits_per_pixel=2)
        frame = pure_color_video(8, 8, 127.0, n_frames=1).frame(0)
        bits = np.random.default_rng(1).random(128) < 0.5
        assert np.array_equal(stego.extract(stego.embed(frame, bits), 128), bits)

    def test_rejects_destructive_depth(self):
        with pytest.raises(ValueError):
            LSBSteganography(bits_per_pixel=5)

    def test_camera_link_destroys_lsb(self, small_camera):
        # The headline negative result: stego does not survive the optical
        # channel, which is why InFrame exists.
        stego = LSBSteganography()
        frame = pure_color_video(80, 112, 127.0, n_frames=1).frame(0)
        bits = np.random.default_rng(2).random(80 * 112) < 0.5
        carrier = stego.embed(frame, bits)
        from repro.video.source import ArrayVideoSource

        panel = DisplayPanel(width=112, height=80)
        timeline = DisplayTimeline(
            panel, ArrayVideoSource(carrier[None].repeat(8, axis=0), fps=120.0)
        )
        capture = small_camera.capture_frame(
            timeline, 0, noise=small_camera.draw_noise(np.random.default_rng(3))
        )
        # Upsample capture back to display geometry for extraction.
        from scipy import ndimage

        upsampled = ndimage.zoom(
            capture.pixels, (80 / 54, 112 / 75), order=1, mode="nearest", grid_mode=True
        )[:80, :112]
        recovered = stego.extract(upsampled, bits.size)
        ber = stego.bit_error_rate(bits, recovered)
        assert 0.4 < ber <= 0.6  # chance level

    def test_bit_error_rate_validation(self):
        with pytest.raises(ValueError):
            LSBSteganography.bit_error_rate(np.ones(3, bool), np.ones(4, bool))


class TestHueShift:
    def test_stream_offsets_are_uniform_per_block(self, small_config, small_video):
        scheme = HueShiftScheme(small_config, small_video, PseudoRandomSchedule(small_config))
        diff = scheme.frame(0) - small_video.frame(0)
        rslice, cslice = scheme.geometry.block_slices(2, 3)
        block = diff[rslice, cslice]
        assert np.allclose(block, block[0, 0])
        assert abs(float(block[0, 0])) == pytest.approx(small_config.amplitude)

    def test_complementary_pairs(self, small_config, small_video):
        scheme = HueShiftScheme(small_config, small_video, PseudoRandomSchedule(small_config))
        video = small_video.frame(0)
        assert np.allclose(
            (scheme.frame(0) + scheme.frame(1)) / 2.0, video, atol=1e-4
        )

    def test_pair_difference_decoding(self, small_config, small_video):
        scheme = HueShiftScheme(small_config, small_video, PseudoRandomSchedule(small_config))
        panel = DisplayPanel(width=112, height=80, refresh_hz=120.0)
        timeline = DisplayTimeline(panel, scheme)
        camera = CameraModel(width=75, height=54, exposure_s=1 / 500, readout_s=0.0,
                             timing_jitter_s=0.0)
        plus = camera.capture_frame(timeline, 0)
        # Second capture half a display frame later in the minus phase.
        from dataclasses import replace

        camera_b = replace(camera, clock_offset_s=1 / 120)
        minus = camera_b.capture_frame(timeline, 0)
        signed = scheme.decode_pair(plus, minus, (54, 75))
        truth = scheme.schedule.bits(0)
        decoded = signed > 0
        assert float((decoded == truth).mean()) > 0.9
