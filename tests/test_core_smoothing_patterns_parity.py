"""Smoothing waveforms, modulation patterns, and GOB parity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry
from repro.core.parity import (
    apply_parity_grid,
    check_parity_grid,
    data_bits_to_grid,
    grid_to_data_bits,
)
from repro.core.patterns import (
    chessboard_pixel_mask,
    pattern_field,
    random_pixel_mask,
    stripes_pixel_mask,
)
from repro.core.smoothing import (
    SmoothingWaveform,
    envelope_pair,
    omega_01,
    omega_10,
    transition_profile,
)


class TestOmega:
    @pytest.mark.parametrize("kind", ["srrc", "linear", "stair"])
    def test_endpoints(self, kind):
        assert float(omega_10(0.0, kind)) == pytest.approx(1.0)
        assert float(omega_10(1.0, kind)) == pytest.approx(0.0)
        assert float(omega_01(0.0, kind)) == pytest.approx(0.0)
        assert float(omega_01(1.0, kind)) == pytest.approx(1.0)

    def test_srrc_constant_power(self):
        x = np.linspace(0, 1, 33)
        total = np.asarray(omega_10(x, "srrc")) ** 2 + np.asarray(omega_01(x, "srrc")) ** 2
        assert np.allclose(total, 1.0)

    def test_linear_sums_to_one(self):
        x = np.linspace(0, 1, 33)
        total = np.asarray(omega_10(x, "linear")) + np.asarray(omega_01(x, "linear"))
        assert np.allclose(total, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            omega_10(0.5, "cubic")
        with pytest.raises(ValueError):
            omega_01(0.5, "cubic")

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_monotonicity(self, x):
        assert float(omega_10(x, "srrc")) >= float(omega_10(min(x + 0.01, 1.0), "srrc"))
        assert float(omega_01(x, "srrc")) <= float(omega_01(min(x + 0.01, 1.0), "srrc"))

    def test_envelope_pair_matches_functions(self):
        down, up = envelope_pair(0.3, "linear")
        assert down == pytest.approx(0.7)
        assert up == pytest.approx(0.3)


class TestSmoothingWaveform:
    def test_rejects_odd_tau(self):
        with pytest.raises(ValueError):
            SmoothingWaveform(7)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            SmoothingWaveform(12, "bezier")

    def test_first_half_fully_stable(self):
        waveform = SmoothingWaveform(12)
        for step in range(6):
            assert waveform.factors(step) == (1.0, 0.0)

    def test_last_step_fully_switched(self):
        waveform = SmoothingWaveform(12)
        current, nxt = waveform.factors(11)
        assert current == pytest.approx(0.0)
        assert nxt == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["srrc", "linear", "stair"])
    @pytest.mark.parametrize("tau", range(4, 17, 2))
    def test_cycle_ends_exactly_on_next_data_frame(self, kind, tau):
        # cos(pi/2) is 6e-17 in floating point; the crossfade must still end
        # with the next data frame held and no trace of the outgoing one.
        waveform = SmoothingWaveform(tau, kind)
        assert waveform.factors(0) == (1.0, 0.0)
        assert waveform.factors(tau - 1) == (0.0, 1.0)
        bits = np.array([1, 0, 1, 1, 0, 0, 1])
        ends = waveform.envelope_samples(bits)[tau - 1 :: tau]
        assert np.array_equal(ends, [*bits[1:], bits[-1]])

    def test_pairs_share_identical_factors(self):
        # The envelope must never change within a complementary pair, or
        # the pair stops fusing to the plain video.
        waveform = SmoothingWaveform(12)
        for pair in range(6):
            assert waveform.factors(2 * pair) == waveform.factors(2 * pair + 1)

    def test_step_bounds(self):
        waveform = SmoothingWaveform(10)
        with pytest.raises(ValueError):
            waveform.factors(10)
        with pytest.raises(ValueError):
            waveform.factors(-1)

    def test_tau_2_never_transitions(self):
        waveform = SmoothingWaveform(2)
        assert waveform.factors(0) == (1.0, 0.0)
        assert waveform.factors(1) == (1.0, 0.0)

    def test_stability_is_current_factor(self):
        waveform = SmoothingWaveform(12)
        assert waveform.stability(8) == waveform.factors(8)[0]

    def test_envelope_samples_constant_for_steady_bits(self):
        waveform = SmoothingWaveform(8)
        samples = waveform.envelope_samples(np.array([1, 1, 1]))
        assert np.allclose(samples, 1.0)

    def test_envelope_samples_transition_reaches_target(self):
        waveform = SmoothingWaveform(8)
        samples = waveform.envelope_samples(np.array([1, 0]))
        assert samples[0] == 1.0
        assert samples[-1] == pytest.approx(0.0, abs=1e-9) or samples[7] < 0.5
        # Second cycle is fully 0.
        assert np.allclose(samples[8:], 0.0)

    @pytest.mark.parametrize("kind", ["srrc", "linear", "stair"])
    def test_transition_profile_monotone_decreasing(self, kind):
        profile = transition_profile(kind, 32)
        assert profile[0] == pytest.approx(1.0)
        assert profile[-1] == pytest.approx(0.0)
        assert np.all(np.diff(profile) <= 1e-12)

    def test_transition_profile_needs_two_samples(self):
        with pytest.raises(ValueError):
            transition_profile("srrc", 1)

    def test_srrc_smoother_than_linear_at_endpoints(self):
        # SRRC's derivative vanishes at the transition start; linear's not.
        srrc = transition_profile("srrc", 101)
        linear = transition_profile("linear", 101)
        assert abs(srrc[1] - srrc[0]) < abs(linear[1] - linear[0])


class TestPatterns:
    def test_chessboard_density_half(self):
        mask = chessboard_pixel_mask(10, 10)
        assert mask.sum() == 50

    def test_chessboard_no_adjacent_equal(self):
        mask = chessboard_pixel_mask(8, 8)
        assert np.all(mask[:, :-1] != mask[:, 1:])
        assert np.all(mask[:-1, :] != mask[1:, :])

    def test_stripes_alternate_columns(self):
        mask = stripes_pixel_mask(4, 8)
        assert np.all(mask[:, 0] == 0) and np.all(mask[:, 1] == 1)

    def test_random_mask_deterministic(self):
        assert np.array_equal(random_pixel_mask(8, 8, seed=5), random_pixel_mask(8, 8, seed=5))

    def test_pattern_field_zero_outside_data_area(self, small_config):
        geometry = FrameGeometry(small_config, 80, 112)
        field = pattern_field(small_config, geometry)
        rows, cols = geometry.data_area_slices()
        outside = field.copy()
        outside[rows, cols] = 0.0
        assert outside.sum() == 0.0

    def test_pattern_field_element_pixel_granularity(self, small_config):
        geometry = FrameGeometry(small_config, 80, 112)
        field = pattern_field(small_config, geometry)
        rows, cols = geometry.data_area_slices()
        area = field[rows, cols]
        p = small_config.element_pixels
        tiled = area.reshape(area.shape[0] // p, p, area.shape[1] // p, p)
        # Every p x p cell is uniform.
        assert np.all(tiled.max(axis=(1, 3)) == tiled.min(axis=(1, 3)))

    def test_pattern_continuous_across_blocks(self, small_config):
        geometry = FrameGeometry(small_config, 80, 112)
        field = pattern_field(small_config, geometry)
        rows, cols = geometry.data_area_slices()
        area = field[rows, cols]
        p = small_config.element_pixels
        cells = area[::p, ::p]
        expected = chessboard_pixel_mask(*cells.shape)
        assert np.array_equal(cells, expected)


class TestParity:
    def test_roundtrip(self, small_config):
        rng = np.random.default_rng(0)
        bits = rng.random(small_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, small_config)
        assert np.array_equal(grid_to_data_bits(grid, small_config), bits)

    def test_generated_grid_passes_parity(self, small_config):
        rng = np.random.default_rng(1)
        bits = rng.random(small_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, small_config)
        assert check_parity_grid(grid, small_config).all()

    def test_single_block_flip_detected(self, small_config):
        rng = np.random.default_rng(2)
        bits = rng.random(small_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, small_config)
        grid[0, 0] = ~grid[0, 0]
        ok = check_parity_grid(grid, small_config)
        assert not ok[0, 0]
        assert ok.sum() == ok.size - 1

    def test_double_flip_in_gob_not_detected(self, small_config):
        # XOR parity is single-error-detecting only; document the limit.
        rng = np.random.default_rng(3)
        bits = rng.random(small_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, small_config)
        grid[0, 0] = ~grid[0, 0]
        grid[0, 1] = ~grid[0, 1]
        assert check_parity_grid(grid, small_config)[0, 0]

    def test_apply_parity_fixes_parity_blocks(self, small_config):
        rng = np.random.default_rng(4)
        grid = rng.random((small_config.block_rows, small_config.block_cols)) < 0.5
        fixed = apply_parity_grid(grid, small_config)
        assert check_parity_grid(fixed, small_config).all()
        # Data blocks unchanged.
        data_before = grid_to_data_bits(grid, small_config)
        data_after = grid_to_data_bits(fixed, small_config)
        assert np.array_equal(data_before, data_after)

    def test_wrong_bit_count_rejected(self, small_config):
        with pytest.raises(ValueError):
            data_bits_to_grid(np.zeros(5, dtype=bool), small_config)

    def test_wrong_grid_shape_rejected(self, small_config):
        with pytest.raises(ValueError):
            check_parity_grid(np.zeros((3, 3), dtype=bool), small_config)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_roundtrip_property(self, seed):
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=2, block_rows=4, block_cols=6, tau=12
        )
        bits = np.random.default_rng(seed).random(config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, config)
        assert np.array_equal(grid_to_data_bits(grid, config), bits)
        assert check_parity_grid(grid, config).all()
