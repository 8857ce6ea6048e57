"""Video substrate: sources, synthetic generators, clip persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video.io import load_clip, save_clip
from repro.video.source import (
    ArrayVideoSource,
    ConstantVideoSource,
    FunctionVideoSource,
    LoopingVideoSource,
)
from repro.video.synthetic import (
    checker_texture_video,
    gradient_video,
    moving_bars_video,
    noise_video,
    pure_color_video,
    sunrise_video,
)


class TestConstantSource:
    def test_frame_values(self):
        source = ConstantVideoSource(8, 10, 127.0, n_frames=3)
        assert np.all(source.frame(0) == 127.0)
        assert source.frame(0).shape == (8, 10)

    def test_index_bounds(self):
        source = ConstantVideoSource(8, 10, 0.0, n_frames=3)
        with pytest.raises(IndexError):
            source.frame(3)
        with pytest.raises(IndexError):
            source.frame(-1)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            ConstantVideoSource(8, 10, 300.0)

    def test_duration(self):
        source = ConstantVideoSource(8, 10, 0.0, fps=30.0, n_frames=60)
        assert source.duration_s == pytest.approx(2.0)

    def test_every_index_is_one_read_only_frame(self):
        # The display layers reuse a read-only frame's work when it comes back.
        source = ConstantVideoSource(8, 10, 127.0, n_frames=3)
        frame = source.frame(0)
        assert not frame.flags.writeable
        assert source.frame(2) is frame
        looped = LoopingVideoSource(source, n_loops=2)
        assert looped.frame(5) is frame
        with pytest.raises(ValueError):
            frame[0, 0] = 0.0


class TestArraySource:
    def test_roundtrip(self):
        frames = np.random.default_rng(0).uniform(0, 255, (4, 6, 8)).astype(np.float32)
        source = ArrayVideoSource(frames, fps=30.0)
        assert source.n_frames == 4
        assert np.array_equal(source.frame(2), frames[2])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            ArrayVideoSource(np.zeros((4, 6)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ArrayVideoSource(np.full((2, 4, 4), 300.0))


class TestFunctionSource:
    def test_render_called_and_cached(self):
        calls = []

        def render(index):
            calls.append(index)
            return np.zeros((4, 4), dtype=np.float32)

        source = FunctionVideoSource(4, 4, render, n_frames=4)
        source.frame(1)
        source.frame(1)
        assert calls == [1]

    def test_shape_mismatch_rejected(self):
        source = FunctionVideoSource(4, 4, lambda i: np.zeros((5, 5), np.float32), n_frames=2)
        with pytest.raises(ValueError):
            source.frame(0)


class TestSyntheticGenerators:
    def test_pure_color(self):
        assert float(pure_color_video(8, 8, 180.0).frame(0).mean()) == 180.0

    def test_gradient_spans_range(self):
        source = gradient_video(8, 32, low=10.0, high=240.0)
        frame = source.frame(0)
        assert float(frame.min()) == pytest.approx(10.0)
        assert float(frame.max()) == pytest.approx(240.0)

    def test_gradient_vertical(self):
        frame = gradient_video(32, 8, horizontal=False).frame(0)
        assert np.all(np.diff(frame[:, 0]) >= 0)

    def test_noise_video_is_deterministic(self):
        a = noise_video(8, 8, seed=3).frame(2)
        b = noise_video(8, 8, seed=3).frame(2)
        assert np.array_equal(a, b)

    def test_noise_video_static_mode(self):
        source = noise_video(8, 8, static=True)
        assert np.array_equal(source.frame(0), source.frame(5))

    def test_noise_video_dynamic_mode(self):
        source = noise_video(8, 8, static=False)
        assert not np.array_equal(source.frame(0), source.frame(5))

    def test_moving_bars_move(self):
        source = moving_bars_video(8, 64, bar_width=8, speed_px_per_frame=4.0)
        assert not np.array_equal(source.frame(0), source.frame(1))

    def test_checker_texture_alternates(self):
        frame = checker_texture_video(8, 8, cell=2, low=10.0, high=200.0).frame(0)
        assert frame[0, 0] != frame[0, 2]

    def test_sunrise_properties(self):
        source = sunrise_video(60, 90, n_frames=10)
        first, last = source.frame(0), source.frame(9)
        assert first.shape == (60, 90)
        # The scene brightens as the sun rises.
        assert float(last.mean()) > float(first.mean())
        # The sun disc saturates by the end.
        assert float(last.max()) == 255.0
        # Determinism.
        assert np.array_equal(source.frame(5), sunrise_video(60, 90, n_frames=10).frame(5))

    def test_sunrise_grain_control(self):
        smooth = sunrise_video(60, 90, n_frames=4, grain_std=0.0).frame(1)
        grainy = sunrise_video(60, 90, n_frames=4, grain_std=8.0).frame(1)
        # Grain raises high-frequency energy.
        hf = lambda img: float(np.abs(np.diff(img, axis=1)).mean())
        assert hf(grainy) > hf(smooth) + 1.0


class TestClipIO:
    def test_roundtrip(self, tmp_path):
        source = sunrise_video(24, 32, n_frames=5)
        path = tmp_path / "clip.npz"
        save_clip(path, source)
        loaded = load_clip(path)
        assert loaded.n_frames == 5
        assert loaded.fps == source.fps
        assert np.allclose(loaded.frame(3), source.frame(3))

    def test_rejects_non_clip_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError):
            load_clip(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            frames=np.zeros((1, 2, 2), np.float32),
            fps=np.float64(30.0),
            version=np.int64(99),
        )
        with pytest.raises(ValueError):
            load_clip(path)
