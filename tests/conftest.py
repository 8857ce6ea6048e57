"""Shared fixtures for the test suite.

Tests run at deliberately small spatial scales so the full suite stays
fast; the channel physics is resolution-independent (see DESIGN.md), and
the slow full-scale paths are covered by the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.camera.capture import CameraModel
from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry
from repro.core.pipeline import InFrameSender
from repro.display.panel import DisplayPanel
from repro.video.synthetic import pure_color_video


@pytest.fixture
def small_config() -> InFrameConfig:
    """A small but structurally paper-shaped config: 8x12 Blocks of 8 px."""
    return InFrameConfig(
        element_pixels=2,
        pixels_per_block=4,
        block_rows=8,
        block_cols=12,
        amplitude=20.0,
        tau=12,
    )


@pytest.fixture
def small_geometry(small_config) -> FrameGeometry:
    """Geometry placing the small grid in a 80x112 frame (margins 8/8)."""
    return FrameGeometry(small_config, 80, 112)


@pytest.fixture
def small_video(small_config):
    """A gray clip matching the small geometry."""
    return pure_color_video(80, 112, 127.0, n_frames=12)


@pytest.fixture
def small_sender(small_config, small_video) -> InFrameSender:
    """A full sender over the small setup."""
    return InFrameSender(small_config, small_video)


@pytest.fixture
def small_camera() -> CameraModel:
    """A camera at 2/3 of the small panel resolution."""
    return CameraModel(width=75, height=54, readout_s=0.008)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_panel() -> DisplayPanel:
    """A small 120 Hz panel."""
    return DisplayPanel(width=112, height=80, refresh_hz=120.0)
