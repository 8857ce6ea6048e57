"""Data-frame geometry: where every Pixel, Block and GOB lives on screen.

The hierarchical structure (paper Section 3.3): ``p x p`` device pixels
form a super Pixel; ``s x s`` super Pixels form a Block (one bit);
``m x m`` Blocks form a GOB.  The Block grid is centred inside the display
frame; the surrounding margin carries no data (the paper's 30x50 Blocks at
p=4, s=9 cover 1800x1080 of a 1920x1080 panel).

The same geometry answers two questions:

* sender side: which display pixels belong to Block (r, c)?
* receiver side: which *camera* pixels belong to Block (r, c), after the
  fronto-parallel resampling to the capture resolution?
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.core.config import InFrameConfig


class FrameGeometry:
    """Maps the Block/GOB grid onto display and camera pixel coordinates.

    Parameters
    ----------
    config:
        The InFrame configuration (grid and cell sizes).
    frame_height, frame_width:
        The display frame geometry the grid is centred in.
    """

    def __init__(self, config: InFrameConfig, frame_height: int, frame_width: int) -> None:
        check_positive_int(frame_height, "frame_height")
        check_positive_int(frame_width, "frame_width")
        if config.data_height_px > frame_height or config.data_width_px > frame_width:
            raise ValueError(
                f"data area {config.data_height_px}x{config.data_width_px} exceeds "
                f"frame {frame_height}x{frame_width}; reduce block grid or cell sizes"
            )
        self.config = config
        self.frame_height = int(frame_height)
        self.frame_width = int(frame_width)
        self.top = (frame_height - config.data_height_px) // 2
        self.left = (frame_width - config.data_width_px) // 2

    # ------------------------------------------------------------------
    # Display-space lookups
    # ------------------------------------------------------------------
    def block_rect(self, row: int, col: int) -> tuple[int, int, int, int]:
        """Display-pixel rect ``(row0, row1, col0, col1)`` of Block (row, col)."""
        self._check_block(row, col)
        side = self.config.block_side_px
        row0 = self.top + row * side
        col0 = self.left + col * side
        return (row0, row0 + side, col0, col0 + side)

    def block_slices(self, row: int, col: int) -> tuple[slice, slice]:
        """Display-pixel slices of Block (row, col)."""
        row0, row1, col0, col1 = self.block_rect(row, col)
        return (slice(row0, row1), slice(col0, col1))

    def data_area_slices(self) -> tuple[slice, slice]:
        """Display-pixel slices covering the whole data area."""
        return (
            slice(self.top, self.top + self.config.data_height_px),
            slice(self.left, self.left + self.config.data_width_px),
        )

    def gob_blocks(self, gob_row: int, gob_col: int) -> list[tuple[int, int]]:
        """Block coordinates belonging to GOB (gob_row, gob_col), row-major.

        The last Block in the list is the parity Block.
        """
        m = self.config.gob_size
        if not (0 <= gob_row < self.config.gob_rows and 0 <= gob_col < self.config.gob_cols):
            raise IndexError(
                f"GOB ({gob_row}, {gob_col}) outside "
                f"{self.config.gob_rows}x{self.config.gob_cols} grid"
            )
        return [(gob_row * m + i, gob_col * m + j) for i in range(m) for j in range(m)]

    def expand_block_grid(self, grid: np.ndarray) -> np.ndarray:
        """Expand a per-Block array to a full display-frame field.

        Values outside the data area are zero.  Works for bool or float
        grids; the output dtype is float32.
        """
        grid = np.asarray(grid)
        if grid.shape != (self.config.block_rows, self.config.block_cols):
            raise ValueError(
                f"grid must be {self.config.block_rows}x{self.config.block_cols}, "
                f"got {grid.shape}"
            )
        side = self.config.block_side_px
        field = np.zeros((self.frame_height, self.frame_width), dtype=np.float32)
        rows, cols = self.data_area_slices()
        field[rows, cols] = np.repeat(np.repeat(grid, side, axis=0), side, axis=1)
        return field

    # ------------------------------------------------------------------
    # Camera-space lookups
    # ------------------------------------------------------------------
    def camera_block_rect(
        self,
        row: int,
        col: int,
        camera_height: int,
        camera_width: int,
        inset: float = 0.2,
        screen_rect: tuple[int, int, int, int] | None = None,
    ) -> tuple[int, int, int, int]:
        """Camera-pixel rect of Block (row, col) under fronto-parallel capture.

        Parameters
        ----------
        camera_height, camera_width:
            Capture resolution.
        inset:
            Fraction of the block side trimmed from each edge before
            measuring, hiding block borders and small misalignment.
        screen_rect:
            ``(row0, row1, col0, col1)`` the display occupies within the
            capture (``CameraModel.screen_rect()``); defaults to the whole
            capture (the paper's 50 cm close-range setup).
        """
        self._check_block(row, col)
        if not (0.0 <= inset < 0.5):
            raise ValueError(f"inset must be in [0, 0.5), got {inset}")
        if screen_rect is None:
            screen_rect = (0, camera_height, 0, camera_width)
        s_row0, s_row1, s_col0, s_col1 = screen_rect
        row0, row1, col0, col1 = self.block_rect(row, col)
        sy = (s_row1 - s_row0) / self.frame_height
        sx = (s_col1 - s_col0) / self.frame_width
        pad_y = (row1 - row0) * inset
        pad_x = (col1 - col0) * inset
        cam_row0 = int(np.floor(s_row0 + (row0 + pad_y) * sy))
        cam_row1 = int(np.ceil(s_row0 + (row1 - pad_y) * sy))
        cam_col0 = int(np.floor(s_col0 + (col0 + pad_x) * sx))
        cam_col1 = int(np.ceil(s_col0 + (col1 - pad_x) * sx))
        cam_row1 = max(cam_row1, cam_row0 + 1)
        cam_col1 = max(cam_col1, cam_col0 + 1)
        return (cam_row0, min(cam_row1, camera_height), cam_col0, min(cam_col1, camera_width))

    def camera_block_index_maps(
        self,
        camera_height: int,
        camera_width: int,
        inset: float = 0.2,
        screen_rect: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """Label map assigning camera pixels to Blocks.

        Returns an int32 array of shape ``(camera_height, camera_width)``
        holding ``row * block_cols + col`` for pixels inside (the inset
        core of) Block (row, col) and -1 elsewhere.  The decoder uses this
        to compute every Block statistic in one vectorised pass.
        """
        check_positive_int(camera_height, "camera_height")
        check_positive_int(camera_width, "camera_width")
        labels = np.full((camera_height, camera_width), -1, dtype=np.int32)
        for row in range(self.config.block_rows):
            for col in range(self.config.block_cols):
                r0, r1, c0, c1 = self.camera_block_rect(
                    row, col, camera_height, camera_width, inset, screen_rect
                )
                labels[r0:r1, c0:c1] = row * self.config.block_cols + col
        return labels

    def display_block_index_map(self, inset: float = 0.2) -> np.ndarray:
        """Label map in *display* coordinates (for projective receivers).

        Same convention as :meth:`camera_block_index_maps` but at display
        resolution; a perspective decoder warps this through the capture
        homography instead of scaling rectangles.
        """
        if not (0.0 <= inset < 0.5):
            raise ValueError(f"inset must be in [0, 0.5), got {inset}")
        labels = np.full((self.frame_height, self.frame_width), -1, dtype=np.int32)
        side = self.config.block_side_px
        pad = int(round(side * inset))
        for row in range(self.config.block_rows):
            for col in range(self.config.block_cols):
                r0, r1, c0, c1 = self.block_rect(row, col)
                labels[r0 + pad : r1 - pad, c0 + pad : c1 - pad] = (
                    row * self.config.block_cols + col
                )
        return labels

    def _check_block(self, row: int, col: int) -> None:
        if not (0 <= row < self.config.block_rows and 0 <= col < self.config.block_cols):
            raise IndexError(
                f"Block ({row}, {col}) outside "
                f"{self.config.block_rows}x{self.config.block_cols} grid"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameGeometry({self.config.block_rows}x{self.config.block_cols} blocks, "
            f"side={self.config.block_side_px}px, frame={self.frame_height}x{self.frame_width}, "
            f"origin=({self.top}, {self.left}))"
        )
