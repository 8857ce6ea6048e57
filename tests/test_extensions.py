"""Extension features beyond the paper: gamma compensation, adaptive
amplitude, blind clock synchronisation."""

from __future__ import annotations

import numpy as np

from repro.camera.capture import CameraModel, CapturedFrame
from repro.core.config import InFrameConfig
from repro.core.decoder import InFrameDecoder
from repro.core.encoder import DataFrameEncoder
from repro.core.geometry import FrameGeometry
from repro.core.pipeline import InFrameSender, run_link
from repro.hvs.perception import perception_artifacts
from repro.video.synthetic import pure_color_video, sunrise_video


def _config(**overrides) -> InFrameConfig:
    base = dict(
        element_pixels=2, pixels_per_block=4, block_rows=8, block_cols=12,
        amplitude=40.0, tau=12,
    )
    base.update(overrides)
    return InFrameConfig(**base)


class TestGammaCompensation:
    def test_fused_luminance_error_nearly_eliminated(self):
        video = pure_color_video(80, 112, 127.0, n_frames=15)
        plain = InFrameSender(_config(), video)
        fixed = InFrameSender(_config(gamma_compensation=True), video)
        reference = video.frame(0)
        err_plain = perception_artifacts(plain.timeline(), reference, t=0.15)["max_weber"]
        err_fixed = perception_artifacts(fixed.timeline(), reference, t=0.15)["max_weber"]
        assert err_fixed < err_plain / 10.0

    def test_compensation_zero_when_disabled(self):
        config = _config()
        geometry = FrameGeometry(config, 80, 112)
        encoder = DataFrameEncoder(config, geometry)
        video = pure_color_video(80, 112, 127.0, n_frames=1).frame(0)
        bits = np.ones((8, 12), bool)
        modulation = encoder.modulation_field(video, bits)
        assert not encoder.compensation_field(video, modulation).any()

    def test_compensation_negative_on_convex_gamma(self):
        config = _config(gamma_compensation=True)
        geometry = FrameGeometry(config, 80, 112)
        encoder = DataFrameEncoder(config, geometry)
        video = pure_color_video(80, 112, 127.0, n_frames=1).frame(0)
        bits = np.ones((8, 12), bool)
        modulation = encoder.modulation_field(video, bits)
        compensation = encoder.compensation_field(video, modulation)
        modulated = modulation > 0
        assert np.all(compensation[modulated] < 0)
        assert not compensation[~modulated].any()

    def test_pair_stays_in_range(self):
        config = _config(gamma_compensation=True)
        geometry = FrameGeometry(config, 80, 112)
        encoder = DataFrameEncoder(config, geometry)
        bits = np.ones((8, 12), bool)
        for value in (2.0, 127.0, 250.0):
            video = pure_color_video(80, 112, value, n_frames=1).frame(0)
            plus, minus = encoder.multiplexed_pair(video, bits)
            assert plus.min() >= 0 and plus.max() <= 255
            assert minus.min() >= 0 and minus.max() <= 255

    def test_decoder_unaffected_by_compensation(self):
        # The chessboard amplitude is unchanged; only a DC shift is added,
        # so the link performs the same with compensation on.
        camera = CameraModel(width=96, height=72, readout_s=0.006)
        video = pure_color_video(108, 144, 127.0, n_frames=24)
        config = _config(
            element_pixels=2, pixels_per_block=5, block_rows=10, block_cols=14,
            amplitude=20.0,
        )
        plain = run_link(config, video, camera=camera, seed=4).stats
        comp = run_link(
            config.with_updates(gamma_compensation=True), video, camera=camera, seed=4
        ).stats
        assert abs(comp.bit_accuracy - plain.bit_accuracy) < 0.08


class TestAdaptiveAmplitude:
    def test_flat_content_keeps_base_amplitude(self):
        config = _config(amplitude=20.0, adaptive_amplitude=True)
        geometry = FrameGeometry(config, 80, 112)
        encoder = DataFrameEncoder(config, geometry)
        video = pure_color_video(80, 112, 127.0, n_frames=1).frame(0)
        delta = encoder._adaptive_delta(video)
        assert np.allclose(delta, 20.0)

    def test_textured_content_raises_amplitude(self):
        config = _config(amplitude=20.0, adaptive_amplitude=True)
        geometry = FrameGeometry(config, 160, 200)
        encoder = DataFrameEncoder(config, geometry)
        video = sunrise_video(160, 200, n_frames=1, grain_std=12.0).frame(0)
        delta = encoder._adaptive_delta(video)
        assert float(delta.max()) > 25.0
        assert float(delta.max()) <= config.adaptive_amplitude_max + 1e-5

    def test_texture_cache_never_serves_a_freed_frames_deltas(self):
        # A freed frame's identity can be handed to the next allocation, so
        # the cache must hold the frame it describes, not its id().
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=6, block_rows=12, block_cols=20,
            amplitude=20.0, tau=12, adaptive_amplitude=True,
        )
        geometry = FrameGeometry(config, 162, 288)
        bits = np.ones((12, 20), bool)
        video = sunrise_video(162, 288, n_frames=1)
        for _ in range(20):
            encoder = DataFrameEncoder(config, geometry)
            flat = np.full((162, 288), 127.0, dtype=np.float32)
            encoder.modulation_field(flat, bits)
            del flat
            textured = video.frame(0).copy()
            fresh = DataFrameEncoder(config, geometry)
            assert float(fresh._adaptive_delta(textured).max()) > 30.0
            assert np.array_equal(
                encoder.modulation_field(textured, bits), fresh.modulation_field(textured, bits)
            )

    def test_adaptive_improves_textured_link(self):
        camera = CameraModel(width=192, height=108)
        video = sunrise_video(162, 288, n_frames=24, grain_std=10.0)
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=6, block_rows=12, block_cols=20,
            amplitude=20.0, tau=12,
        )
        plain = run_link(config, video, camera=camera, seed=6).stats
        adaptive = run_link(
            config.with_updates(adaptive_amplitude=True), video, camera=camera, seed=6
        ).stats
        assert adaptive.bit_accuracy >= plain.bit_accuracy


class TestBlindSynchronisation:
    def test_synchronized_recovers_shifted_clock(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        timeline = sender.timeline()
        camera = CameraModel(width=75, height=54, readout_s=0.004, exposure_s=1 / 500)
        captures = camera.capture_sequence(timeline, 24, rng=np.random.default_rng(2))

        # The receiver's clock reads the captures with an unknown offset.
        offset = 0.0437
        shifted = [
            CapturedFrame(
                pixels=c.pixels,
                index=c.index,
                start_time_s=c.start_time_s + offset,
                mid_exposure_s=c.mid_exposure_s + offset,
            )
            for c in captures
        ]

        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        blind = decoder.synchronized(shifted)
        cycle = small_config.tau / small_config.refresh_hz
        # The estimated phase compensates the offset modulo the cycle.
        residual = (blind.clock_phase_s - offset) % cycle
        residual = min(residual, cycle - residual)
        assert residual < cycle / 4

        decoded = blind.decode(shifted)
        # Bits should be decodable against *some* alignment of the ground
        # truth; find the best integer frame shift and check accuracy.
        best = 0.0
        for frame in decoded[1:-1]:
            for k in range(max(frame.index - 1, 0), frame.index + 2):
                truth = sender.stream.ground_truth(min(k, sender.stream.n_data_frames - 1))
                best = max(best, float((frame.bits == truth).mean()))
        assert best > 0.9

    def test_synchronized_preserves_settings(self, small_config, small_geometry, small_sender):
        camera = CameraModel(width=75, height=54)
        captures = camera.capture_sequence(
            small_sender.timeline(), 6, rng=np.random.default_rng(0)
        )
        decoder = InFrameDecoder(
            small_config, small_geometry, 54, 75, inset=0.3, aggregation="mean"
        )
        blind = decoder.synchronized(captures)
        assert blind.inset == 0.3
        assert blind.aggregation == "mean"
