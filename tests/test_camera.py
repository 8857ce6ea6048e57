"""Camera substrate: optics, sensor, rolling shutter, capture pipeline."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.analysis.experiments import ExperimentScale
from repro.camera import operators
from repro.camera.capture import CameraModel
from repro.camera.optics import OpticsModel
from repro.camera.rolling_shutter import RollingShutter
from repro.camera.sensor import SensorModel
from repro.display.panel import DisplayPanel
from repro.core.pipeline import run_link
from repro.display.scheduler import DisplayTimeline
from repro.serve import BroadcastSession, deterministic_payload, parse_cohorts, run_fleet
from repro.video.source import ArrayVideoSource


class TestOptics:
    def test_blur_preserves_mean(self):
        optics = OpticsModel(blur_sigma_px=1.5, vignetting=0.0)
        rng = np.random.default_rng(0)
        image = rng.uniform(0, 100, (32, 32)).astype(np.float32)
        out = optics.apply(image)
        assert float(out.mean()) == pytest.approx(float(image.mean()), rel=1e-3)

    def test_blur_reduces_high_frequency(self):
        optics = OpticsModel(blur_sigma_px=1.0, vignetting=0.0)
        checker = np.indices((32, 32)).sum(axis=0) % 2 * 100.0
        out = optics.apply(checker.astype(np.float32))
        assert float(out.std()) < float(checker.std())

    def test_vignetting_darkens_corners_only(self):
        optics = OpticsModel(blur_sigma_px=0.0, vignetting=0.2)
        flat = np.full((33, 33), 100.0, dtype=np.float32)
        out = optics.apply(flat)
        assert out[0, 0] < out[16, 16]
        assert float(out[16, 16]) == pytest.approx(100.0, rel=1e-3)

    def test_noop_configuration(self):
        optics = OpticsModel(blur_sigma_px=0.0, vignetting=0.0)
        image = np.random.default_rng(1).uniform(0, 255, (8, 8)).astype(np.float32)
        assert np.array_equal(optics.apply(image), image)


class TestSensor:
    def test_noise_free_is_deterministic_and_monotone(self):
        sensor = SensorModel()
        lums = np.array([[10.0, 50.0, 150.0, 290.0]], dtype=np.float32)
        out = sensor.expose(lums, 1 / 500)
        assert np.all(np.diff(out[0]) > 0)

    def test_calibration_hits_target_level(self):
        sensor = SensorModel().calibrated_for(300.0, 1 / 500, target_level=210.0)
        level = float(sensor.expose(np.array([[300.0]], np.float32), 1 / 500)[0, 0])
        assert level == pytest.approx(210.0, abs=1.0)

    def test_saturation_clips_at_255(self):
        sensor = SensorModel().calibrated_for(100.0, 1 / 500, target_level=250.0)
        level = float(sensor.expose(np.array([[1000.0]], np.float32), 1 / 500)[0, 0])
        assert level == 255.0

    def test_noise_scales_with_signal(self):
        sensor = SensorModel().calibrated_for(300.0, 1 / 500)
        rng = np.random.default_rng(0)
        dim = sensor.expose(
            np.full((64, 64), 5.0, np.float32), 1 / 500, noise=sensor.draw_noise(rng, (64, 64))
        )
        rng = np.random.default_rng(0)
        bright = sensor.expose(
            np.full((64, 64), 150.0, np.float32), 1 / 500, noise=sensor.draw_noise(rng, (64, 64))
        )
        # Shot-noise-limited: electron noise grows with sqrt(signal), but
        # the gamma response compresses highlights, so *relative* count
        # noise falls while absolute electron noise rises.
        assert float(dim.std()) / max(float(dim.mean()), 1) > float(bright.std()) / float(
            bright.mean()
        )

    def test_seeded_noise_reproducible(self):
        sensor = SensorModel()
        image = np.full((16, 16), 80.0, np.float32)
        a = sensor.expose(image, 1 / 500, sensor.draw_noise(np.random.default_rng(7), (16, 16)))
        b = sensor.expose(image, 1 / 500, sensor.draw_noise(np.random.default_rng(7), (16, 16)))
        assert np.array_equal(a, b)

    def test_rejects_noise_of_another_shape(self):
        sensor = SensorModel()
        noise = sensor.draw_noise(np.random.default_rng(7), (1, 16))
        with pytest.raises(ValueError, match="noise planes"):
            sensor.expose(np.full((16, 16), 80.0, np.float32), 1 / 500, noise)

    def test_snr_increases_with_luminance(self):
        sensor = SensorModel()
        assert sensor.snr_at(100.0, 1 / 500) > sensor.snr_at(1.0, 1 / 500)

    def test_rejects_nonpositive_exposure(self):
        with pytest.raises(ValueError):
            SensorModel().expose(np.zeros((2, 2), np.float32), 0.0)


class TestRollingShutter:
    def test_row_window_offsets(self):
        shutter = RollingShutter(n_rows=100, exposure_s=0.001, readout_s=0.010)
        start0, end0 = shutter.row_window(10.0, 0)
        start50, _ = shutter.row_window(10.0, 50)
        assert start0 == pytest.approx(10.0)
        assert end0 == pytest.approx(10.001)
        assert start50 == pytest.approx(10.0 + 0.010 * 0.5)

    def test_row_out_of_range(self):
        shutter = RollingShutter(n_rows=10, exposure_s=0.001, readout_s=0.01)
        with pytest.raises(ValueError):
            shutter.row_window(0.0, 10)

    def test_global_shutter_has_uniform_windows(self):
        shutter = RollingShutter(n_rows=10, exposure_s=0.002, readout_s=0.0)
        w0 = shutter.row_window(1.0, 0)
        w9 = shutter.row_window(1.0, 9)
        assert w0 == w9

    @given(
        start=st.floats(min_value=0.0, max_value=0.5),
        exposure=st.floats(min_value=1e-4, max_value=5e-3),
        readout=st.floats(min_value=0.0, max_value=0.02),
    )
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_one(self, start, exposure, readout):
        shutter = RollingShutter(n_rows=24, exposure_s=exposure, readout_s=readout)
        weights = shutter.display_frame_weights(start, 1 / 120, 200)
        total = sum(weights.values())
        assert np.allclose(total, np.ones(24), atol=1e-6)

    def test_straddling_rows_split_between_frames(self):
        # Exposure window of some rows must cross the display boundary.
        shutter = RollingShutter(n_rows=100, exposure_s=0.004, readout_s=0.012)
        weights = shutter.display_frame_weights(0.0, 1 / 120, 10)
        assert len(weights) >= 2
        w0 = weights[0]
        # Early rows entirely in frame 0, later rows not.
        assert w0[0] == pytest.approx(1.0)
        assert w0[-1] < 1.0

    def test_clamps_beyond_stream_end(self):
        shutter = RollingShutter(n_rows=8, exposure_s=0.001, readout_s=0.0)
        weights = shutter.display_frame_weights(100.0, 1 / 120, 5)
        assert set(weights) == {4}


def _timeline(h=30, w=40, n=16, value=127.0):
    frames = np.full((n, h, w), value, dtype=np.float32)
    panel = DisplayPanel(width=w, height=h, refresh_hz=120.0, response_time_s=0.0)
    return DisplayTimeline(panel, ArrayVideoSource(frames, fps=120.0))


class TestCameraModel:
    def test_frame_timing_with_drift(self):
        camera = CameraModel(fps=30.0, clock_drift=0.0, clock_offset_s=0.25)
        assert camera.frame_start(3) == pytest.approx(0.25 + 0.1)

    def test_capture_shape_and_range(self):
        camera = CameraModel(width=20, height=15, timing_jitter_s=0.0)
        capture = camera.capture_frame(_timeline(), 0)
        assert capture.pixels.shape == (15, 20)
        assert capture.pixels.min() >= 0 and capture.pixels.max() <= 255

    def test_capture_is_deterministic_with_seed(self):
        camera = CameraModel(width=20, height=15)
        tl = _timeline()
        a = camera.capture_frame(tl, 1, noise=camera.draw_noise(np.random.default_rng(5))).pixels
        b = camera.capture_frame(tl, 1, noise=camera.draw_noise(np.random.default_rng(5))).pixels
        assert np.array_equal(a, b)

    def test_auto_exposure_prevents_saturation(self):
        camera = CameraModel(width=20, height=15).auto_exposed(300.0)
        tl = _timeline(value=255.0)
        capture = camera.capture_frame(tl, 0)
        assert float(capture.pixels.mean()) < 230.0

    def test_jitter_changes_start_time(self):
        camera = CameraModel(width=20, height=15, timing_jitter_s=2e-3)
        tl = _timeline()
        a = camera.capture_frame(tl, 0, noise=camera.draw_noise(np.random.default_rng(1)))
        b = camera.capture_frame(tl, 0, noise=camera.draw_noise(np.random.default_rng(2)))
        assert a.start_time_s != b.start_time_s

    def test_frames_covering(self):
        camera = CameraModel(width=20, height=15, fps=30.0, clock_drift=0.0)
        tl = _timeline(n=120)  # one second
        count = camera.frames_covering(tl)
        assert 25 <= count <= 30

    def test_capture_sequence_length(self):
        camera = CameraModel(width=20, height=15)
        captures = camera.capture_sequence(_timeline(), 3, rng=np.random.default_rng(0))
        assert [c.index for c in captures] == [0, 1, 2]

    def test_resample_identity_when_same_size(self):
        camera = CameraModel(width=40, height=30)
        image = np.random.default_rng(0).uniform(0, 255, (30, 40)).astype(np.float32)
        assert np.array_equal(camera._resample(image), image)

    def test_resample_downscale_preserves_mean(self):
        camera = CameraModel(width=20, height=15)
        image = np.random.default_rng(0).uniform(50, 200, (30, 40)).astype(np.float32)
        out = camera._resample(image)
        assert out.shape == (15, 20)
        assert float(out.mean()) == pytest.approx(float(image.mean()), rel=0.02)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            CameraModel(timing_jitter_s=1.0)


class TestScreenFill:
    def test_full_fill_rect_covers_capture(self):
        camera = CameraModel(width=40, height=30)
        assert camera.screen_rect() == (0, 30, 0, 40)

    def test_partial_fill_rect_centred(self):
        camera = CameraModel(width=40, height=30, screen_fill=0.5)
        r0, r1, c0, c1 = camera.screen_rect()
        assert (r1 - r0, c1 - c0) == (15, 20)
        assert r0 == (30 - 15) // 2 and c0 == (40 - 20) // 2

    def test_background_visible_around_screen(self):
        camera = CameraModel(
            width=40, height=30, screen_fill=0.5, background_luminance=0.5,
            timing_jitter_s=0.0,
        )
        capture = camera.capture_frame(_timeline(value=200.0), 0)
        r0, r1, c0, c1 = camera.screen_rect()
        corner = float(capture.pixels[0, 0])
        centre = float(capture.pixels[(r0 + r1) // 2, (c0 + c1) // 2])
        assert centre > corner + 20.0

    def test_screen_region_matches_full_fill_content(self):
        near = CameraModel(width=40, height=30, timing_jitter_s=0.0)
        far = CameraModel(width=40, height=30, screen_fill=0.5, timing_jitter_s=0.0)
        tl = _timeline(value=150.0)
        near_px = near.capture_frame(tl, 0).pixels
        far_px = far.capture_frame(tl, 0).pixels
        r0, r1, c0, c1 = far.screen_rect()
        # Flat content: the shrunken screen shows the same level.
        assert abs(float(far_px[r0:r1, c0:c1].mean()) - float(near_px.mean())) < 2.0

    def test_fill_bounds_validated(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            CameraModel(screen_fill=0.0)
        with _pytest.raises(ValueError):
            CameraModel(screen_fill=1.5)

    def test_at_distance_clamps_fill_at_both_ends(self):
        camera = CameraModel(width=40, height=30, screen_fill=0.5)
        assert camera.at_distance(2.0) == replace(camera, screen_fill=0.25)
        assert camera.at_distance(100.0).screen_fill == 0.05
        assert camera.at_distance(0.1).screen_fill == 1.0
        with pytest.raises(ValueError):
            camera.at_distance(0.0)


# ----------------------------------------------------------------------
# The lens and resample stages against the SciPy filters they replace
# ----------------------------------------------------------------------
def reference_optics(optics: OpticsModel, image: np.ndarray) -> np.ndarray:
    """``OpticsModel.apply`` as a chain of SciPy filters (the test oracle)."""
    out = np.asarray(image, dtype=np.float32)
    if optics.blur_sigma_px > 0.0:
        out = ndimage.gaussian_filter(out, sigma=optics.blur_sigma_px, mode="nearest")
    if optics.vignetting > 0.0:
        rows = np.linspace(-1.0, 1.0, out.shape[0], dtype=np.float32)[:, None]
        cols = np.linspace(-1.0, 1.0, out.shape[1], dtype=np.float32)[None, :]
        radius2 = (rows**2 + cols**2) / 2.0
        out = out * (1.0 - np.float32(optics.vignetting) * radius2).astype(np.float32)
    return out.astype(np.float32)


def reference_resample(
    camera: CameraModel, image: np.ndarray, target: tuple[int, int] | None = None
) -> np.ndarray:
    """``CameraModel._resample`` as a chain of SciPy filters (the test oracle)."""
    target_h, target_w = target if target is not None else (camera.height, camera.width)
    src_h, src_w = image.shape
    if (src_h, src_w) == (target_h, target_w):
        return image
    zoom = (target_h / src_h, target_w / src_w)
    sigma = tuple(max(0.0, 0.35 / z - 0.3) for z in zoom)
    if any(s > 0 for s in sigma):
        image = ndimage.gaussian_filter(image, sigma=sigma, mode="nearest")
    out = ndimage.zoom(image, zoom, order=1, mode="nearest", grid_mode=True)
    if out.shape != (target_h, target_w):
        fixed = np.empty((target_h, target_w), dtype=out.dtype)
        h = min(target_h, out.shape[0])
        w = min(target_w, out.shape[1])
        fixed[:h, :w] = out[:h, :w]
        if h < target_h:
            fixed[h:, :w] = out[h - 1, :w]
        if w < target_w:
            fixed[:, w:] = fixed[:, w - 1 : w]
        out = fixed
    return out.astype(np.float32)


def _far_cohort_size() -> tuple[int, int]:
    camera = CameraModel(width=320, height=180, screen_fill=1 / 1.3)
    row0, row1, col0, col1 = camera.screen_rect()
    return (row1 - row0, col1 - col0)


#: (display field, camera target) pairs: bench and quick scale, the
#: fleet's far cohort, odd sizes, upsampling.
GEOMETRIES = [
    ((540, 960), (360, 640)),
    ((270, 480), (180, 320)),
    ((270, 480), _far_cohort_size()),
    ((37, 53), (21, 30)),
    ((30, 40), (45, 61)),
]
LENSES = [
    OpticsModel(),
    OpticsModel(blur_sigma_px=0.0),
    OpticsModel(vignetting=0.0),
    OpticsModel(blur_sigma_px=1.5, vignetting=0.2),
]


def _max_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    assert got.shape == want.shape and got.dtype == np.float32
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestOperatorOracle:
    @pytest.mark.parametrize("source, target", GEOMETRIES)
    @pytest.mark.parametrize("optics", LENSES, ids=repr)
    def test_matches_the_scipy_chain(self, source, target, optics):
        # Blur without vignette returns a Fortran-ordered field, so across
        # these lenses the resample sees both memory layouts.
        image = np.random.default_rng(3).uniform(5.0, 250.0, source).astype(np.float32)
        camera = CameraModel(width=target[1], height=target[0], optics=optics)
        focused = optics.apply(image)
        assert _max_relative_error(focused, reference_optics(optics, image)) <= 1e-6
        got = camera._resample(focused)
        want = reference_resample(camera, reference_optics(optics, image))
        assert _max_relative_error(got, want) <= 1e-6


def _decoded_bits(run) -> list[bytes]:
    return [np.packbits(frame.bits).tobytes() for frame in run.decoded]


def _quick_fleet():
    quick = ExperimentScale.quick()
    with BroadcastSession(
        quick.config(), quick.video("gray"), deterministic_payload(32, seed=2)
    ) as session:
        cohorts = parse_cohorts("near:n=1,dwell=1.5|far:n=1,distance=1.3,dwell=1.5", seed=2)
        return run_fleet(session, cohorts, base_camera=quick.camera(), seed=2)


class TestOperatorEndToEnd:
    """The SciPy chain swapped back in decodes exactly the same bits."""

    @pytest.fixture
    def reference_chain(self, monkeypatch):
        def swap():
            monkeypatch.setattr(OpticsModel, "apply", reference_optics)
            monkeypatch.setattr(CameraModel, "_resample", reference_resample)

        return swap

    def test_quick_link(self, reference_chain):
        quick = replace(ExperimentScale.quick(), n_video_frames=12)
        config = quick.config()

        def link():
            return run_link(config, quick.video("video"), camera=quick.camera(), seed=5)

        fast = link()
        reference_chain()
        slow = link()
        assert _decoded_bits(fast) == _decoded_bits(slow)
        assert fast.stats == slow.stats

    def test_two_receiver_fleet(self, reference_chain):
        fast = _quick_fleet()
        reference_chain()
        slow = _quick_fleet()
        assert fast.report.work_json() == slow.report.work_json()


class TestOperatorCache:
    def test_same_geometry_reuses_the_operators(self):
        assert operators.blur_operators(0.5, 270, 480) is operators.blur_operators(0.5, 270, 480)
        assert operators.vignette_mask(0.08, 270, 480) is operators.vignette_mask(0.08, 270, 480)
        assert not operators.vignette_mask(0.08, 270, 480).flags.writeable
        pair = operators.resample_operators(270, 480, 180, 320)
        assert pair is operators.resample_operators(270, 480, 180, 320)
        assert [m.shape for m in pair] == [(180, 270), (320, 480)]

    def test_cohorts_with_different_screen_fill_get_distinct_operators(self):
        near = CameraModel(width=40, height=30, timing_jitter_s=0.0)
        far = replace(near, screen_fill=0.5)
        timeline = _timeline(h=36, w=48)
        operators.resample_operators.cache_clear()
        for camera in (near, far, near, far):
            camera.capture_frame(timeline, 0)
        info = operators.resample_operators.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        assert operators.resample_operators(36, 48, 30, 40) is not operators.resample_operators(
            36, 48, 15, 20
        )

    def test_caches_are_bounded(self):
        for size in range(4, 4 + operators.CACHE_SIZE + 3):
            operators.blur_operators(0.5, size, size + 1)
            operators.resample_operators(size, size + 1, 3, 4)
        for size in range(4, 4 + operators.MASK_CACHE_SIZE + 3):
            operators.vignette_mask(0.1, size, size)
        assert operators.blur_operators.cache_info().currsize == operators.CACHE_SIZE
        assert operators.resample_operators.cache_info().currsize == operators.CACHE_SIZE
        assert operators.vignette_mask.cache_info().currsize == operators.MASK_CACHE_SIZE

    def test_building_never_allocates_a_dense_square(self):
        n = 4096
        tracemalloc.start()
        try:
            blur = operators.gaussian_operator(0.5, n)
            resample = operators.resample_operator(n, 2731)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blur.shape == (n, n) and resample.shape == (2731, n)
        assert peak < n * n * 4 / 8  # an eighth of one dense float32 matrix
