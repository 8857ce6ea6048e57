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

from typing import Protocol

import numpy as np

from repro._util import check_frame
from repro.core.config import InFrameConfig
from repro.core.encoder import DataFrameEncoder
from repro.display.gamma import GammaCurve
from repro.core.geometry import FrameGeometry
from repro.video.source import VideoSource


#: What a modulation field is a pure function of: (video frame index,
#: data frame index, envelope factors).
FieldsKey = tuple[int, int, tuple[float, float]]


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
        self._fields_memo: tuple[FieldsKey, np.ndarray, np.ndarray | None] | None = None

    # ------------------------------------------------------------------
    # FrameSource protocol
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Display frames in the stream."""
        return self._n_frames

    def frame(self, index: int) -> np.ndarray:
        """Render displayed frame *index* (pixel values, float32)."""
        if not (0 <= index < self._n_frames):
            raise IndexError(f"frame index {index} outside [0, {self._n_frames})")
        video_index = index // self.config.frame_duplication
        video_frame = check_frame(self.video.frame(video_index), "video_frame")
        data_index, step = divmod(index, self.config.tau)
        modulation, compensation = self._fields(video_index, video_frame, data_index, step)
        sign = 1 if index % 2 == 0 else -1
        return self.encoder.displayed(video_frame, modulation, compensation, sign)

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
        self, video_index: int, video_frame: np.ndarray, data_index: int, step: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The modulation field and gamma compensation (None when off) for a frame.

        Both are pure functions of the video frame, the data frames
        ``data_index`` and ``data_index + 1``, and the envelope factors at
        *step*.  The envelope advances once per pair, and stays flat over
        the first half of each cycle, so consecutive frames share the
        fields: they are kept as one read-only entry keyed on those inputs.
        """
        key = (video_index, data_index, self.encoder.waveform.factors(step))
        if self._fields_memo is not None and self._fields_memo[0] == key:
            return self._fields_memo[1], self._fields_memo[2]
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
        self._fields_memo = (key, modulation, compensation)
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
