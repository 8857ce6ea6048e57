"""Perspective capture geometry: homographies, warps, tilted views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.camera.capture import CameraModel
from repro.camera.geometry import (
    PerspectiveView,
    apply_homography,
    homography_from_points,
    warp_image,
    warp_labels,
)


class TestHomography:
    def test_identity_from_matching_points(self):
        pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        h = homography_from_points(pts, pts)
        assert np.allclose(h, np.eye(3), atol=1e-9)

    def test_translation(self):
        src = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        dst = src + np.array([5.0, 7.0])
        h = homography_from_points(src, dst)
        mapped = apply_homography(h, np.array([[2.0, 3.0]]))
        assert np.allclose(mapped, [[7.0, 10.0]])

    def test_scale(self):
        src = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        h = homography_from_points(src, src * 2.0)
        mapped = apply_homography(h, np.array([[4.0, 5.0]]))
        assert np.allclose(mapped, [[8.0, 10.0]])

    def test_projective_consistency_at_corners(self):
        src = np.array([[0, 0], [100, 0], [100, 60], [0, 60]], dtype=float)
        dst = np.array([[10, 5], [90, 15], [85, 70], [5, 55]], dtype=float)
        h = homography_from_points(src, dst)
        assert np.allclose(apply_homography(h, src), dst, atol=1e-6)

    def test_degenerate_points_rejected(self):
        collinear = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        with pytest.raises(ValueError):
            homography_from_points(collinear, collinear)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            homography_from_points(np.zeros((3, 2)), np.zeros((4, 2)))


class TestWarps:
    def test_identity_warp_preserves_image(self):
        image = np.random.default_rng(0).uniform(0, 255, (20, 30)).astype(np.float32)
        out = warp_image(image, np.eye(3), (20, 30))
        assert np.allclose(out, image, atol=0.5)

    def test_background_fills_outside(self):
        image = np.full((10, 10), 200.0, np.float32)
        # Shift the image far right: left half of output is background.
        h = homography_from_points(
            np.array([[0, 0], [9, 0], [9, 9], [0, 9]], dtype=float),
            np.array([[20, 0], [29, 0], [29, 9], [20, 9]], dtype=float),
        )
        out = warp_image(image, h, (10, 30), background=3.0)
        assert float(out[5, 5]) == pytest.approx(3.0)
        assert float(out[5, 25]) == pytest.approx(200.0, abs=1.0)

    def test_label_warp_nearest_and_fill(self):
        labels = np.arange(12, dtype=np.int32).reshape(3, 4)
        out = warp_labels(labels, np.eye(3), (3, 4))
        assert np.array_equal(out, labels)
        shifted = warp_labels(labels, np.eye(3), (5, 6))
        assert shifted[4, 5] == -1


class TestPerspectiveView:
    def test_fronto_parallel_full_fill(self):
        view = PerspectiveView.fronto_parallel(30, 40, fill=1.0)
        assert view.corners[0] == (0.0, 0.0)
        assert view.corners[2] == (40.0, 30.0)

    def test_tilted_zero_angles_is_symmetric(self):
        view = PerspectiveView.tilted(30, 40, yaw_deg=0.0, fill=0.8)
        xs = [c[0] for c in view.corners]
        assert xs[0] == pytest.approx(40 - xs[1], abs=1e-6)

    def test_yaw_foreshortens_one_side(self):
        view = PerspectiveView.tilted(30, 40, yaw_deg=30.0, fill=0.8)
        (tl, tr, br, bl) = view.corners
        left_height = bl[1] - tl[1]
        right_height = br[1] - tr[1]
        assert abs(left_height - right_height) > 0.5  # trapezoid, not rectangle

    def test_homography_maps_display_corners_to_quad(self):
        view = PerspectiveView.tilted(30, 40, yaw_deg=20.0)
        h = view.homography(60, 80)
        corners = apply_homography(
            h, np.array([[0, 0], [79, 0], [79, 59], [0, 59]], dtype=float)
        )
        assert np.allclose(corners, np.asarray(view.corners), atol=1e-6)

    def test_angle_bounds(self):
        with pytest.raises(ValueError):
            PerspectiveView.tilted(30, 40, yaw_deg=80.0)

    def test_corner_count_validated(self):
        with pytest.raises(ValueError):
            PerspectiveView(corners=((0.0, 0.0), (1.0, 0.0)))


class TestTiltedCapture:
    def test_tilted_capture_shows_trapezoid(self):
        from repro.display.panel import DisplayPanel
        from repro.display.scheduler import DisplayTimeline
        from repro.video.source import ArrayVideoSource

        frames = np.full((8, 30, 40), 220.0, dtype=np.float32)
        panel = DisplayPanel(width=40, height=30, refresh_hz=120.0)
        timeline = DisplayTimeline(panel, ArrayVideoSource(frames, fps=120.0))
        view = PerspectiveView.tilted(60, 80, yaw_deg=35.0, fill=0.8)
        camera = CameraModel(
            width=80, height=60, view=view, background_luminance=0.0,
            timing_jitter_s=0.0,
        )
        capture = camera.capture_frame(timeline, 0)
        bright = capture.pixels > 50
        # Foreshortening: the bright columns' vertical extents differ
        # between the left and right edges of the quad.
        cols = np.flatnonzero(bright.any(axis=0))
        left_extent = int(bright[:, cols[2]].sum())
        right_extent = int(bright[:, cols[-3]].sum())
        assert left_extent != right_extent

    def test_tilted_link_decodes(self):
        from repro.core.config import InFrameConfig
        from repro.core.pipeline import run_link
        from repro.video.synthetic import pure_color_video

        config = InFrameConfig(
            element_pixels=4, pixels_per_block=3, block_rows=16, block_cols=24,
            amplitude=20.0, tau=12,
        )
        video = pure_color_video(324, 576, 127.0, n_frames=18)
        view = PerspectiveView.tilted(216, 384, yaw_deg=25.0, fill=0.9)
        camera = CameraModel(width=384, height=216, view=view)
        stats = run_link(config, video, camera=camera, seed=3).stats
        assert stats.bit_accuracy > 0.9
