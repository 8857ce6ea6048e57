"""Cross-module property tests: invariants over random configurations.

Hypothesis drives the whole codec (no camera in the loop, so these stay
fast) and checks the invariants the system's correctness rests on:

* complementarity of every displayed pair, for any config and content;
* fused pixel-value average equals the video exactly (plus the documented
  compensation shift);
* GOB coding round-trips for both codes and arbitrary grid sizes;
* the decoder on noiseless, perfectly-sampled captures is exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import InFrameConfig
from repro.core.framing import PseudoRandomSchedule
from repro.core.multiplexer import MultiplexedStream
from repro.core.parity import data_bits_to_grid, grid_to_data_bits
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.video.synthetic import noise_video, pure_color_video


@st.composite
def small_configs(draw):
    """Random small-but-valid InFrame configs."""
    gob_size = draw(st.sampled_from([2, 3]))
    gob_code = draw(st.sampled_from(["xor", "hamming84"])) if gob_size == 3 else "xor"
    block_rows = gob_size * draw(st.integers(min_value=1, max_value=3))
    block_cols = gob_size * draw(st.integers(min_value=1, max_value=4))
    return InFrameConfig(
        element_pixels=draw(st.sampled_from([1, 2, 3])),
        pixels_per_block=draw(st.sampled_from([2, 3, 4])),
        gob_size=gob_size,
        gob_code=gob_code,
        block_rows=block_rows,
        block_cols=block_cols,
        amplitude=draw(st.sampled_from([5.0, 20.0, 45.0])),
        tau=draw(st.sampled_from([4, 8, 12])),
        waveform=draw(st.sampled_from(["srrc", "linear", "stair"])),
        gamma_compensation=draw(st.booleans()),
    )


class TestCodecInvariants:
    @given(config=small_configs(), value=st.floats(min_value=0.0, max_value=255.0),
           seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_every_pair_fuses_to_base(self, config, value, seed):
        height = config.data_height_px + 4
        width = config.data_width_px + 6
        video = pure_color_video(height, width, value, n_frames=2)
        stream = MultiplexedStream(
            config, video, PseudoRandomSchedule(config, seed=seed)
        )
        for pair_start in range(0, min(stream.n_frames - 1, 6), 2):
            plus = stream.frame(pair_start)
            minus = stream.frame(pair_start + 1)
            base = (plus + minus) / 2.0
            # Both frames in range...
            assert plus.min() >= 0.0 and plus.max() <= 255.0
            assert minus.min() >= 0.0 and minus.max() <= 255.0
            # ...and each pair fuses exactly to its base field: the plain
            # video without compensation, or V + c(t) with it (c rides the
            # envelope during transitions, so it may differ across pairs).
            if not config.gamma_compensation:
                assert np.allclose(base, video.frame(0), atol=1e-3)
            else:
                assert float(base.max()) <= 255.0
                assert np.all(base <= video.frame(0) + 1e-3)  # c <= 0

    @given(config=small_configs(), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_gob_roundtrip_any_config(self, config, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random(config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, config)
        assert np.array_equal(grid_to_data_bits(grid, config), bits)

    @given(config=small_configs())
    @settings(max_examples=40, deadline=None)
    def test_bit_budget_consistency(self, config):
        assert config.bits_per_frame == config.n_gobs * config.bits_per_gob
        assert config.raw_bit_rate_bps == pytest.approx(
            config.bits_per_frame * config.refresh_hz / config.tau
        )

    @given(config=small_configs(), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_noiseless_ideal_decoder_is_exact(self, config, seed):
        """A perfect receiver (display-resolution capture, no channel)
        must recover every bit from the stable phase of a cycle."""
        from repro.camera.capture import CapturedFrame
        from repro.core.decoder import InFrameDecoder

        height = config.data_height_px + 4
        width = config.data_width_px + 6
        # Amplitude 5 on mid gray never clips; skip hamming spare-block
        # subtleties are handled by the decoder itself.
        video = pure_color_video(height, width, 127.0, n_frames=2)
        stream = MultiplexedStream(
            config, video, PseudoRandomSchedule(config, seed=seed)
        )
        truth = stream.ground_truth(0)
        # The paper's texture correction subtracts the frame-mean noise, so
        # a *constant* bit grid (possible only on these toy 2x2 grids, never
        # on the paper's 30x50) is inherently ambiguous to the relative
        # threshold.  Both bit values present is a design precondition.
        assume(bool(truth.min() != truth.max()))
        decoder = InFrameDecoder(config, stream.geometry, height, width, inset=0.25)
        t = 0.5 / config.refresh_hz  # mid first displayed frame (stable phase)
        capture = CapturedFrame(
            pixels=stream.frame(0), index=0, start_time_s=0.0, mid_exposure_s=t
        )
        decoded = decoder.decode([capture])
        assert len(decoded) == 1
        assert np.array_equal(decoded[0].bits, stream.ground_truth(0))


class TestAccessOrder:
    @given(
        config=small_configs(),
        # tau=2 is the one cycle in which a video frame spans two data
        # frames with equal envelope factors.
        tau=st.sampled_from([2, 4, 6, 10, 12, 14]),
        adaptive=st.booleans(),
        clip_mode=st.sampled_from(["pixel", "block"]),
        # The default panel, and slow ones up to DisplayPanel's 0.1 s limit.
        response_time_s=st.sampled_from([0.001, 0.01, 0.05, 0.1]),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_outputs_do_not_depend_on_access_order(
        self, config, tau, adaptive, clip_mode, response_time_s, seed, data
    ):
        """A memo key that misses an input, an in-place write into a cached
        array, or an LC re-warm too shallow for the panel makes an output
        depend on what was read before it."""
        config = config.with_updates(tau=tau, adaptive_amplitude=adaptive, clip_mode=clip_mode)
        height = config.data_height_px + 4
        width = config.data_width_px + 6
        video = noise_video(height, width, n_frames=6, seed=seed)
        panel = DisplayPanel(width=width, height=height, response_time_s=response_time_s)
        interval = panel.frame_interval_s

        def fresh_stream():
            return MultiplexedStream(config, video, PseudoRandomSchedule(config, seed=seed))

        def fields(timeline, index):
            return timeline.frame_average_luminance(index), timeline.luminance_at(
                (index + 0.5) * interval
            )

        stream = fresh_stream()
        walked = DisplayTimeline(panel, fresh_stream())
        in_order = [[f.copy() for f in fields(walked, i)] for i in range(stream.n_frames)]
        timeline = DisplayTimeline(panel, stream)
        order = data.draw(st.lists(st.integers(0, stream.n_frames - 1), min_size=1, max_size=40))
        handed_out = []
        for index in order:
            frame = stream.frame(index)
            assert np.array_equal(frame, fresh_stream().frame(index))
            handed_out.append((frame, frame.copy()))
            for field, expected in zip(fields(timeline, index), in_order[index]):
                np.testing.assert_allclose(field, expected, rtol=1e-6, atol=0.0)
                handed_out.append((field, field.copy()))
        for array, snapshot in handed_out:
            assert np.array_equal(array, snapshot)


class TestFailureInjection:
    def test_saturated_capture_yields_no_confident_bits(self, small_config, small_geometry):
        from repro.core.decoder import InFrameDecoder

        decoder = InFrameDecoder(small_config, small_geometry, 54, 75)
        white = np.full((54, 75), 255.0, dtype=np.float32)
        noise = decoder.block_noise_map(white)
        assert float(np.abs(noise).max()) < 1e-6

    def test_black_video_carries_nothing(self, small_config, small_camera):
        # Zero headroom: the encoder cannot modulate at all.
        from repro.core.pipeline import run_link

        video = pure_color_video(80, 112, 0.0, n_frames=12)
        run = run_link(small_config, video, camera=small_camera, seed=1)
        assert run.stats.bit_accuracy < 0.7  # nothing transmitted: chance-ish

    def test_random_garbage_capture_low_availability(self, small_config, small_geometry, rng):
        from repro.camera.capture import CapturedFrame
        from repro.core.decoder import InFrameDecoder

        decoder = InFrameDecoder(small_config, small_geometry, 54, 75)
        garbage = rng.uniform(0, 255, (54, 75)).astype(np.float32)
        capture = CapturedFrame(
            pixels=garbage, index=0, start_time_s=0.0, mid_exposure_s=0.004
        )
        decoded = decoder.decode([capture])
        # Uniform noise has no bimodal structure: most GOBs unavailable or
        # parity-rejected.
        frame = decoded[0]
        trustworthy = frame.gob_available & frame.gob_parity_ok
        assert float(trustworthy.mean()) < 0.7

    def test_decoder_survives_constant_capture(self, small_config, small_geometry):
        from repro.camera.capture import CapturedFrame
        from repro.core.decoder import InFrameDecoder

        decoder = InFrameDecoder(small_config, small_geometry, 54, 75)
        flat = np.full((54, 75), 127.0, dtype=np.float32)
        capture = CapturedFrame(
            pixels=flat, index=0, start_time_s=0.0, mid_exposure_s=0.004
        )
        decoded = decoder.decode([capture])
        assert decoded[0].available_ratio == 0.0  # zero spread -> no confidence
