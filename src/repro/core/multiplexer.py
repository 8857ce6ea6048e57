"""Frame multiplexing (paper Section 3.2 and Figure 2).

Given a 30 FPS video and a data-frame schedule, produce the 120 Hz display
stream: each video frame ``V_i`` is duplicated ``refresh / fps`` times and
each duplicate carries ``+M`` or ``-M`` alternately, where ``M`` is the
smoothed, clip-aware chessboard modulation.  Even displayed frames carry
``+``, odd carry ``-``, so every consecutive (even, odd) pair is exactly
complementary and fuses to ``V_i`` for the viewer.

:class:`MultiplexedStream` implements the display scheduler's
:class:`~repro.display.scheduler.FrameSource` protocol lazily -- frames
are rendered on demand, so multi-second streams cost no memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro._util import check_frame
from repro.core.config import InFrameConfig
from repro.core.encoder import DataFrameEncoder
from repro.display.gamma import GammaCurve
from repro.core.geometry import FrameGeometry
from repro.video.source import VideoSource


@dataclass
class _Pair:
    """The latest displayed pair and what it was rendered from."""

    envelope: tuple[int, tuple[float, float]]  # (data frame, factors)
    video_index: int
    video: np.ndarray  # validated: the source's own array when it is float32
    modulation: np.ndarray
    compensation: np.ndarray | None
    frames: list[np.ndarray | None]  # + and -, each made read-only on first use


class DataFrameSchedule(Protocol):
    """Supplies the Block bit grid for each data frame index."""

    def bits(self, index: int) -> np.ndarray:
        """Full Block grid (parity included) for data frame *index*."""
        ...


class MultiplexedStream:
    """The multiplexed display stream: video plus complementary data frames.

    Parameters
    ----------
    config:
        InFrame parameters (tau, delta, waveform, clock rates...).
    video:
        The primary content.  Its fps must match ``config.video_fps``.
    schedule:
        Data-frame bit supplier (see :mod:`repro.core.framing`).
    n_display_frames:
        Optional stream length; defaults to the full video
        (``video.n_frames * config.frame_duplication`` frames).
    gamma_curve:
        The target panel's transfer curve, needed when
        ``config.gamma_compensation`` is on.
    """

    def __init__(
        self,
        config: InFrameConfig,
        video: VideoSource,
        schedule: DataFrameSchedule,
        n_display_frames: int | None = None,
        gamma_curve: GammaCurve | None = None,
    ) -> None:
        if abs(video.fps - config.video_fps) > 1e-9:
            raise ValueError(
                f"video fps {video.fps} does not match config.video_fps {config.video_fps}"
            )
        self.config = config
        self.video = video
        self.schedule = schedule
        self.geometry = FrameGeometry(config, video.height, video.width)
        self.encoder = DataFrameEncoder(config, self.geometry, gamma_curve=gamma_curve)
        max_frames = video.n_frames * config.frame_duplication
        if n_display_frames is None:
            n_display_frames = max_frames
        if not (1 <= n_display_frames <= max_frames):
            raise ValueError(
                f"n_display_frames must be in [1, {max_frames}], got {n_display_frames}"
            )
        self._n_frames = int(n_display_frames)
        self._bits_cache: dict[int, np.ndarray] = {}
        self._pair: _Pair | None = None

    # ------------------------------------------------------------------
    # FrameSource protocol
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Display frames in the stream."""
        return self._n_frames

    def frame(self, index: int) -> np.ndarray:
        """Render displayed frame *index* (pixel values, float32, read-only).

        Besides its sign, a displayed frame depends on its video content
        (the same video index, or the same read-only frame) and its envelope.
        The stream keeps the latest pair, so a repeated frame is the same array.
        """
        if not (0 <= index < self._n_frames):
            raise IndexError(f"frame index {index} outside [0, {self._n_frames})")
        video_index = index // self.config.frame_duplication
        data_index, step = divmod(index, self.config.tau)
        factors = self.encoder.waveform.factors(step)
        # A finished crossfade, factors (0, 1), shows data frame j + 1's bit
        # grid exactly as that frame's own first half, factors (1, 0), does.
        envelope = (data_index + 1, (1.0, 0.0)) if factors == (0.0, 1.0) else (data_index, factors)
        source = self.video.frame(video_index)
        pair = self._pair
        if pair is None or pair.envelope != envelope or not (
            pair.video_index == video_index or (pair.video is source and not source.flags.writeable)
        ):
            video = check_frame(source, "video_frame")
            pair = self._pair = _Pair(
                envelope, video_index, video, *self._fields(video, data_index, step), [None, None]
            )
        slot = index % 2
        frame = pair.frames[slot]
        if frame is None:
            sign = 1 - 2 * slot
            frame = self.encoder.displayed(pair.video, pair.modulation, pair.compensation, sign)
            frame.flags.writeable = False
            pair.frames[slot] = frame
        return frame

    # ------------------------------------------------------------------
    # Introspection used by experiments and tests
    # ------------------------------------------------------------------
    @property
    def n_data_frames(self) -> int:
        """Data frames whose cycle starts inside the stream."""
        return (self._n_frames + self.config.tau - 1) // self.config.tau

    def ground_truth(self, data_index: int) -> np.ndarray:
        """The Block grid actually transmitted for data frame *data_index*."""
        return self._bits(data_index).copy()

    def _fields(
        self, video_frame: np.ndarray, data_index: int, step: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The read-only modulation field and gamma compensation (None when off)."""
        modulation = self.encoder.modulation_field(
            video_frame, self._bits(data_index), self._bits(data_index + 1), step
        )
        compensation = (
            self.encoder.compensation_field(video_frame, modulation)
            if self.config.gamma_compensation
            else None
        )
        for field in (modulation, compensation):
            if field is not None:
                field.flags.writeable = False
        return modulation, compensation

    def _bits(self, data_index: int) -> np.ndarray:
        cached = self._bits_cache.get(data_index)
        if cached is not None:
            return cached
        grid = np.asarray(self.schedule.bits(data_index), dtype=bool)
        expected = (self.config.block_rows, self.config.block_cols)
        if grid.shape != expected:
            raise ValueError(f"schedule returned grid {grid.shape}, expected {expected}")
        self._bits_cache[data_index] = grid
        if len(self._bits_cache) > 64:
            self._bits_cache.pop(next(iter(self._bits_cache)))
        return grid
