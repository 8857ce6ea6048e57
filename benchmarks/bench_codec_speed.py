"""Computational-cost benchmarks (the paper's Section 5 open question).

"What are the associated computational cost and energy overhead?" --
these benches time the hot paths with real repetitions (unlike the
figure benches, which run once): frame multiplexing, block noise
extraction, Reed-Solomon coding, and the HVS scoring pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentScale
from repro.core.decoder import InFrameDecoder
from repro.core.pipeline import InFrameSender
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.hvs.flicker import FlickerPredictor

SCALE = ExperimentScale.benchmark()


@pytest.fixture(scope="module")
def sender():
    config = SCALE.config(amplitude=20.0, tau=12)
    return InFrameSender(config, SCALE.video("gray"))


def test_speed_multiplex_frame(benchmark, sender):
    """Render one multiplexed 960x540 display frame."""
    counter = iter(range(10**9))

    def render():
        return sender.stream.frame(next(counter) % sender.stream.n_frames)

    frame = benchmark(render)
    assert frame.shape == (540, 960)
    # Real-time budget context: 120 FPS needs < 8.3 ms per frame.


def test_speed_block_noise_map(benchmark, sender):
    """Extract one capture's Block noise map (the decoder's hot path)."""
    config = sender.config
    camera = SCALE.camera()
    decoder = InFrameDecoder(config, sender.geometry, camera.height, camera.width)
    capture = camera.capture_frame(
        sender.timeline(), 1, noise=camera.draw_noise(np.random.default_rng(0))
    )

    noise = benchmark(decoder.block_noise_map, capture.pixels)
    assert noise.shape == (config.block_rows, config.block_cols)


def test_speed_rs_encode(benchmark):
    """Encode 1 kB of payload with RS(60, 40)."""
    codec = ReedSolomonCodec(60, 40)
    chunks = [bytes(range(40))] * 25  # 1000 message bytes

    def encode_all():
        return [codec.encode(chunk) for chunk in chunks]

    words = benchmark(encode_all)
    assert len(words) == 25


def test_speed_rs_decode_with_errors(benchmark):
    """Decode RS(60, 40) codewords carrying 5 byte errors each."""
    codec = ReedSolomonCodec(60, 40)
    word = bytearray(codec.encode(bytes(range(40))))
    for position in (3, 11, 25, 44, 59):
        word[position] ^= 0xA5
    corrupted = bytes(word)

    decoded, fixed = benchmark(codec.decode, corrupted)
    assert fixed == 5


def test_speed_flicker_scoring(benchmark):
    """Score 0.25 s of a multiplexed stream with the HVS model."""
    from repro.analysis.experiments import flicker_timeline

    timeline = flicker_timeline(20.0, 12, 127.0, n_video_frames=8)
    predictor = FlickerPredictor()

    report = benchmark(predictor.report, timeline, 0.25)
    assert 0.0 <= report.score <= 4.0


def test_speed_camera_capture(benchmark, sender):
    """Capture one camera frame (rolling shutter + optics + sensor)."""
    camera = SCALE.camera()
    timeline = sender.timeline()
    rng = np.random.default_rng(0)
    counter = iter(range(10**9))

    def capture():
        return camera.capture_frame(timeline, next(counter) % 8, noise=camera.draw_noise(rng))

    frame = benchmark(capture)
    assert frame.pixels.shape == (camera.height, camera.width)
