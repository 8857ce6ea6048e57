"""InFrame config validation and frame geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry


class TestConfigDefaults:
    def test_paper_prototype_values(self):
        config = InFrameConfig()
        assert config.element_pixels == 4
        assert config.gob_size == 2
        assert (config.block_rows, config.block_cols) == (30, 50)
        assert config.refresh_hz == 120.0 and config.video_fps == 30.0

    def test_paper_bit_budget(self):
        # "a frame can carry up to w/s/2 x h/s/2 x 3 bits": 15*25*3 = 1125.
        config = InFrameConfig()
        assert config.n_gobs == 15 * 25
        assert config.bits_per_frame == 1125

    def test_data_area_fits_1080p(self):
        config = InFrameConfig()
        assert config.data_height_px == 1080
        assert config.data_width_px == 1800

    def test_data_frame_rate(self):
        assert InFrameConfig(tau=12).data_frame_rate_hz == pytest.approx(10.0)
        assert InFrameConfig(tau=10).data_frame_rate_hz == pytest.approx(12.0)

    def test_raw_bit_rate_matches_paper_headline(self):
        # 1125 bits * 12 Hz = 13.5 kbps raw; the paper's 12.8 kbps is this
        # discounted by availability and errors.
        assert InFrameConfig(tau=10).raw_bit_rate_bps == pytest.approx(13500.0)


class TestConfigValidation:
    def test_odd_tau_rejected(self):
        with pytest.raises(ValueError):
            InFrameConfig(tau=11)

    def test_grid_must_tile_gobs(self):
        with pytest.raises(ValueError):
            InFrameConfig(block_rows=31)

    def test_gob_size_one_rejected(self):
        with pytest.raises(ValueError):
            InFrameConfig(gob_size=1)

    def test_refresh_must_be_multiple_of_fps(self):
        with pytest.raises(ValueError):
            InFrameConfig(refresh_hz=100.0, video_fps=30.0)

    def test_unknown_waveform_rejected(self):
        with pytest.raises(ValueError):
            InFrameConfig(waveform="gaussian")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            InFrameConfig(pattern="dots")

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError):
            InFrameConfig(amplitude=128.0)

    def test_with_updates_revalidates(self):
        config = InFrameConfig()
        with pytest.raises(ValueError):
            config.with_updates(tau=3)

    def test_scaled_keeps_grid_and_pixel(self):
        config = InFrameConfig().scaled(0.5)
        assert config.element_pixels == 4
        assert (config.block_rows, config.block_cols) == (30, 50)
        assert config.pixels_per_block < 9
        assert config.bits_per_frame == 1125

    def test_scaled_floor(self):
        assert InFrameConfig().scaled(0.01).pixels_per_block == 2


class TestGeometry:
    @pytest.fixture
    def geometry(self, small_config):
        return FrameGeometry(small_config, 80, 112)

    def test_centred_margins(self, geometry, small_config):
        assert geometry.top == (80 - small_config.data_height_px) // 2
        assert geometry.left == (112 - small_config.data_width_px) // 2

    def test_too_small_frame_rejected(self, small_config):
        with pytest.raises(ValueError):
            FrameGeometry(small_config, 10, 10)

    def test_block_rects_tile_data_area(self, geometry, small_config):
        covered = np.zeros((80, 112), dtype=int)
        for row in range(small_config.block_rows):
            for col in range(small_config.block_cols):
                r0, r1, c0, c1 = geometry.block_rect(row, col)
                covered[r0:r1, c0:c1] += 1
        rows, cols = geometry.data_area_slices()
        assert np.all(covered[rows, cols] == 1)
        assert covered.sum() == small_config.data_height_px * small_config.data_width_px

    def test_block_rect_bounds_checked(self, geometry, small_config):
        with pytest.raises(IndexError):
            geometry.block_rect(small_config.block_rows, 0)

    def test_gob_blocks_row_major_with_parity_last(self, geometry):
        blocks = geometry.gob_blocks(1, 2)
        assert blocks == [(2, 4), (2, 5), (3, 4), (3, 5)]

    def test_gob_bounds_checked(self, geometry, small_config):
        with pytest.raises(IndexError):
            geometry.gob_blocks(small_config.gob_rows, 0)

    def test_expand_block_grid_values(self, geometry, small_config):
        grid = np.zeros((small_config.block_rows, small_config.block_cols))
        grid[2, 3] = 5.0
        field = geometry.expand_block_grid(grid)
        r0, r1, c0, c1 = geometry.block_rect(2, 3)
        assert np.all(field[r0:r1, c0:c1] == 5.0)
        assert field.sum() == pytest.approx(5.0 * small_config.block_side_px**2)

    def test_expand_rejects_wrong_shape(self, geometry):
        with pytest.raises(ValueError):
            geometry.expand_block_grid(np.zeros((3, 3)))

    def test_camera_rect_scales_proportionally(self, geometry):
        r0, r1, c0, c1 = geometry.camera_block_rect(0, 0, 40, 56, inset=0.0)
        d0, d1, e0, e1 = geometry.block_rect(0, 0)
        assert r0 == pytest.approx(d0 * 0.5, abs=1)
        assert c0 == pytest.approx(e0 * 0.5, abs=1)

    def test_camera_rect_inset_shrinks(self, geometry):
        loose = geometry.camera_block_rect(2, 2, 40, 56, inset=0.0)
        tight = geometry.camera_block_rect(2, 2, 40, 56, inset=0.3)
        assert tight[0] >= loose[0] and tight[1] <= loose[1]
        assert tight[2] >= loose[2] and tight[3] <= loose[3]

    def test_camera_rect_never_empty(self, geometry):
        r0, r1, c0, c1 = geometry.camera_block_rect(0, 0, 12, 18, inset=0.45)
        assert r1 > r0 and c1 > c0

    def test_camera_rect_rejects_bad_inset(self, geometry):
        with pytest.raises(ValueError):
            geometry.camera_block_rect(0, 0, 40, 56, inset=0.5)

    def test_label_map_covers_every_block(self, geometry, small_config):
        labels = geometry.camera_block_index_maps(54, 75, inset=0.2)
        present = set(np.unique(labels)) - {-1}
        assert len(present) == small_config.block_rows * small_config.block_cols

    def test_label_map_margins_unlabelled(self, geometry):
        labels = geometry.camera_block_index_maps(54, 75, inset=0.2)
        assert labels[0, 0] == -1  # corner is margin

    def test_label_map_blocks_disjoint(self, geometry, small_config):
        labels = geometry.camera_block_index_maps(54, 75, inset=0.25)
        # With a large inset, adjacent blocks' cores must not touch: the
        # count per label is the same for all interior blocks.
        counts = np.bincount(labels[labels >= 0])
        assert counts.min() > 0


def _per_rectangle_labels(geometry, camera_height, camera_width, inset, screen_rect):
    """The per-rectangle label fill that row and column labels replaced, as its oracle."""
    config = geometry.config
    labels = np.full((camera_height, camera_width), -1, dtype=np.int32)
    for row in range(config.block_rows):
        for col in range(config.block_cols):
            r0, r1, c0, c1 = geometry.camera_block_rect(
                row, col, camera_height, camera_width, inset, screen_rect
            )
            labels[r0:r1, c0:c1] = row * config.block_cols + col
    return labels


SCREEN_RECTS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(-10, 40), st.integers(20, 200), st.integers(-10, 40), st.integers(20, 260)
    ),
)


class TestLabelMapOracle:
    """Row and column labels give the per-rectangle fill, overlaps included."""

    @given(
        camera_height=st.integers(1, 160),
        camera_width=st.integers(1, 220),
        inset=st.floats(0.0, 0.49),
        screen_rect=SCREEN_RECTS,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_rectangle_fill(self, camera_height, camera_width, inset, screen_rect):
        geometry = FrameGeometry(
            InFrameConfig(element_pixels=2, pixels_per_block=4, block_rows=8, block_cols=12),
            80,
            112,
        )
        labels = geometry.camera_block_index_maps(camera_height, camera_width, inset, screen_rect)
        expected = _per_rectangle_labels(
            geometry, camera_height, camera_width, inset, screen_rect
        )
        assert labels.dtype == expected.dtype
        assert np.array_equal(labels, expected)

    @pytest.mark.parametrize(
        "camera, inset, screen_rect",
        [
            ((360, 640), 0.2, None),
            ((180, 320), 0.2, (20, 160, 35, 285)),
            ((90, 160), 0.0, None),
            ((45, 80), 0.3, (3, 40, 5, 75)),
        ],
    )
    def test_matches_at_paper_geometry(self, camera, inset, screen_rect):
        geometry = FrameGeometry(InFrameConfig(), 1080, 1920)
        labels = geometry.camera_block_index_maps(*camera, inset, screen_rect)
        assert np.array_equal(labels, _per_rectangle_labels(geometry, *camera, inset, screen_rect))
