"""Argument-validation helpers.

All validators raise :class:`ValueError` (or :class:`TypeError` for wrong
types) with messages that name the offending parameter, so call sites can
stay one line long.
"""

from __future__ import annotations

import numbers

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Return *value* if it is a finite number > 0, else raise ValueError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Return *value* if it is an integer >= 1, else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_in_range(value: float, name: str, low: float, high: float) -> float:
    """Return *value* if low <= value <= high, else raise ValueError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Return *value* if it lies in [0, 1], else raise ValueError."""
    return check_in_range(value, name, 0.0, 1.0)


def check_frame(frame: np.ndarray, name: str = "frame") -> np.ndarray:
    """Validate a pixel-value frame and return it as float32.

    A frame is a 2-D (grayscale) or 3-D (``(h, w, channels)``) array of
    pixel values in the 8-bit range [0, 255].  Values slightly outside the
    range (e.g. from float rounding) are rejected rather than clipped so
    that range bugs surface early.
    """
    arr = np.asarray(frame)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2-D or 3-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.float32, copy=False)
    # min/max propagate NaN and surface +/-inf, so two passes check both.
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} contains non-finite values")
    if lo < -1e-3 or hi > 255.0 + 1e-3:
        raise ValueError(f"{name} values must be in [0, 255], got [{lo}, {hi}]")
    return arr
