"""Validation helpers in repro._util."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro._util import (
    check_fraction,
    check_frame,
    check_in_range,
    check_positive,
    check_positive_int,
    stable_seed,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("bad", [0, -1, float("inf"), float("nan")])
    def test_rejects_non_positive_and_non_finite(self, bad):
        with pytest.raises(ValueError):
            check_positive(bad, "x")

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            check_positive("3", "x")


class TestCheckPositiveInt:
    def test_accepts_one(self):
        assert check_positive_int(1, "n") == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "n")

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "n") == 5


class TestCheckInRange:
    def test_bounds_inclusive(self):
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.01, "x", 0.0, 1.0)

    def test_fraction_alias(self):
        assert check_fraction(0.5, "f") == 0.5
        with pytest.raises(ValueError):
            check_fraction(-0.1, "f")


class TestCheckFrame:
    def test_accepts_grayscale(self):
        frame = check_frame(np.zeros((4, 4)))
        assert frame.dtype == np.float32

    def test_accepts_color(self):
        assert check_frame(np.zeros((4, 4, 3))).shape == (4, 4, 3)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            check_frame(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_frame(np.zeros((0, 4)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_frame(np.full((2, 2), 256.0))
        with pytest.raises(ValueError):
            check_frame(np.full((2, 2), -1.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_frame(np.full((2, 2), np.nan))

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_frame(np.full((2, 2), "x"))

    def test_float_rounding_tolerance(self):
        # Values a hair outside [0, 255] from float arithmetic are fine.
        assert check_frame(np.full((2, 2), 255.0005)).max() > 255.0 - 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_pixel_is_named_as_such(self, bad):
        frame = np.full((3, 5), 100.0, dtype=np.float32)
        frame[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                check_frame(frame)

    @pytest.mark.parametrize("bad", [255.5, -0.5])
    def test_range_error_names_the_range(self, bad):
        frame = np.full((3, 5), 100.0, dtype=np.float32)
        frame[2, 4] = bad
        with pytest.raises(ValueError, match=r"must be in \[0, 255\]"):
            check_frame(frame)

    def test_accepts_the_tolerance_edge_uint8_and_rgb(self):
        # 255 + 1e-3 itself rounds up in float32; the float32 below it is the edge.
        edge = np.nextafter(np.float32(255.0 + 1e-3), np.float32(0.0))
        assert check_frame(np.full((2, 2), edge, dtype=np.float32)).max() == edge
        uint8 = check_frame(np.arange(256, dtype=np.uint8).reshape(16, 16))
        assert uint8.dtype == np.float32 and uint8.max() == 255.0
        assert check_frame(np.full((2, 3, 3), 7.0)).shape == (2, 3, 3)


class TestStableSeed:
    def test_process_stable_values(self):
        # Pinned: stable_seed must never depend on PYTHONHASHSEED, so the
        # exact values are part of the contract (changing them silently
        # re-seeds every experiment stream derived from string keys).
        assert stable_seed(1) == 1803989619
        assert stable_seed("a") == 3611923103
        assert stable_seed("fig6-left", 20.0, 60) == 4209608712

    def test_distinct_keys_distinct_seeds(self):
        seeds = {stable_seed(k) for k in ("a", "b", ("a",), 1, 1.0, None)}
        assert len(seeds) == 6

    def test_order_matters(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_range_is_32_bit(self):
        for key in range(50):
            assert 0 <= stable_seed(key) < 2**32

    def test_requires_a_part(self):
        with pytest.raises(ValueError):
            stable_seed()


class TestRngFor:
    def test_same_key_same_stream(self):
        from repro.analysis.experiments import rng_for

        a = rng_for("experiment", 3).random(8)
        b = rng_for("experiment", 3).random(8)
        assert np.array_equal(a, b)
        c = rng_for("experiment", 4).random(8)
        assert not np.array_equal(a, c)
