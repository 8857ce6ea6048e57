"""Decoder: noise maps, thresholding, aggregation, cycle-phase estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.camera.capture import CameraModel, CapturedFrame
from repro.core.decoder import InFrameDecoder, estimate_cycle_phase, two_means_threshold
from repro.core.pipeline import InFrameSender


@pytest.fixture
def decoder(small_config, small_geometry) -> InFrameDecoder:
    return InFrameDecoder(small_config, small_geometry, 54, 75)


def _synthetic_capture(decoder, sender, display_index, noise_std=0.8, seed=0):
    """A capture that saw exactly one display frame (global shutter)."""
    frame = sender.stream.frame(display_index)
    # Map display frame to camera resolution by block-mean resampling.
    from scipy import ndimage

    zoom = (decoder.camera_height / frame.shape[0], decoder.camera_width / frame.shape[1])
    resampled = ndimage.zoom(frame, zoom, order=1, mode="nearest", grid_mode=True)
    rng = np.random.default_rng(seed)
    pixels = np.clip(resampled + rng.normal(0, noise_std, resampled.shape), 0, 255)
    t = (display_index + 0.4) / 120.0
    return CapturedFrame(
        pixels=pixels.astype(np.float32), index=display_index, start_time_s=t, mid_exposure_s=t
    )


class TestThresholds:
    def test_two_means_splits_bimodal(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 0.1, 200), rng.normal(2, 0.3, 200)])
        cut = two_means_threshold(values)
        assert 0.5 < cut < 1.6

    def test_two_means_constant_input(self):
        assert two_means_threshold(np.full(10, 3.0)) == pytest.approx(3.0)


class TestDecoderConstruction:
    def test_rejects_tiny_camera(self, small_config, small_geometry):
        with pytest.raises(ValueError):
            InFrameDecoder(small_config, small_geometry, 4, 4)

    def test_rejects_unknown_aggregation(self, small_config, small_geometry):
        with pytest.raises(ValueError):
            InFrameDecoder(small_config, small_geometry, 54, 75, aggregation="median")


class TestNoiseMap:
    def test_shape_and_zero_mean(self, decoder, small_sender):
        capture = _synthetic_capture(decoder, small_sender, 0)
        noise = decoder.block_noise_map(capture.pixels)
        assert noise.shape == (8, 12)
        assert abs(noise.mean()) < 1e-9

    def test_separates_bits_on_clean_capture(self, decoder, small_sender):
        capture = _synthetic_capture(decoder, small_sender, 0, noise_std=0.2)
        noise = decoder.block_noise_map(capture.pixels)
        truth = small_sender.stream.ground_truth(0)
        assert noise[truth].mean() > noise[~truth].mean() + 0.2

    def test_shape_mismatch_rejected(self, decoder):
        with pytest.raises(ValueError):
            decoder.block_noise_map(np.zeros((10, 10), np.float32))


class TestObserve:
    def test_stable_phase_full_weight(self, decoder, small_sender):
        capture = _synthetic_capture(decoder, small_sender, 1)
        obs = decoder.observe(capture)
        assert obs.data_frame_index == 0
        assert obs.weight == pytest.approx(1.0)
        assert obs.contamination == pytest.approx(0.0)

    def test_late_transition_assigned_to_next_frame(self, decoder, small_config, small_sender):
        capture = _synthetic_capture(decoder, small_sender, small_config.tau - 1)
        obs = decoder.observe(capture)
        assert obs.data_frame_index == 1

    def test_mid_transition_weight_reduced(self, decoder, small_config, small_sender):
        # Step tau/2 + 1 is inside the crossfade.
        step = small_config.tau // 2 + 1
        capture = _synthetic_capture(decoder, small_sender, step)
        obs = decoder.observe(capture)
        assert obs.weight < 1.0


class TestDecode:
    def test_clean_captures_decode_exactly(self, decoder, small_config, small_sender):
        captures = [
            _synthetic_capture(decoder, small_sender, i, noise_std=0.2, seed=i)
            for i in range(small_config.tau // 2)
        ]
        decoded = decoder.decode(captures)
        assert len(decoded) == 1
        frame = decoded[0]
        truth = small_sender.stream.ground_truth(0)
        assert np.array_equal(frame.bits, truth)
        assert frame.available_ratio > 0.9
        assert frame.parity_error_ratio == 0.0

    def test_empty_capture_list(self, decoder):
        assert decoder.decode([]) == []

    def test_fixed_threshold_respected(self, small_config, small_geometry, small_sender):
        config = small_config.with_updates(threshold=0.5)
        decoder = InFrameDecoder(config, small_geometry, 54, 75)
        captures = [_synthetic_capture(decoder, small_sender, i, noise_std=0.2) for i in range(4)]
        decoded = decoder.decode(captures)
        assert decoded[0].threshold == 0.5

    def test_mean_aggregation_mode(self, small_config, small_geometry, small_sender):
        decoder = InFrameDecoder(small_config, small_geometry, 54, 75, aggregation="mean")
        captures = [
            _synthetic_capture(decoder, small_sender, i, noise_std=0.2, seed=i) for i in range(4)
        ]
        decoded = decoder.decode(captures)
        truth = small_sender.stream.ground_truth(0)
        assert np.array_equal(decoded[0].bits, truth)

    def test_decoded_frame_statistics_consistent(self, decoder, small_sender, small_config):
        captures = [
            _synthetic_capture(decoder, small_sender, i, noise_std=0.5, seed=i)
            for i in range(small_config.tau)
        ]
        decoded = decoder.decode(captures)
        for frame in decoded:
            assert frame.gob_available.shape == (4, 6)
            assert 0.0 <= frame.available_ratio <= 1.0
            assert 0.0 <= frame.parity_error_ratio <= 1.0
            assert frame.n_captures >= 1


class TestPhaseEstimation:
    def test_recovers_cycle_phase(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        timeline = sender.timeline()
        camera = CameraModel(width=75, height=54, readout_s=0.004, exposure_s=1 / 500)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        captures = camera.capture_sequence(timeline, 20, rng=np.random.default_rng(0))
        phase = estimate_cycle_phase(captures, decoder)
        cycle = small_config.tau / small_config.refresh_hz
        assert 0.0 <= phase < cycle

    def test_needs_three_captures(self, decoder):
        with pytest.raises(ValueError):
            estimate_cycle_phase([], decoder)
