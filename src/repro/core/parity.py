"""GOB coding (paper Section 3.3 and its "larger GOB" future work).

Two per-GOB codes:

* ``xor`` (the prototype): ``m x m`` Blocks, the last Block is the XOR of
  the other ``m^2 - 1`` -- single-error *detection*;
* ``hamming84`` (the future-work upgrade): 3x3 Blocks, the first 8 carry
  an extended-Hamming(8,4) codeword of 4 data bits, the 9th is held at 0
  -- single-error *correction*, double-error detection, so a GOB with one
  misread Block is repaired instead of discarded.

The code is selected by ``InFrameConfig.gob_code``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import InFrameConfig
from repro.ecc.hamming import _DATA_POSITIONS, DOUBLE_ERROR, VERDICTS, decode_block, encode_block


def data_bits_to_grid(data_bits: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """Lay out a flat data-bit vector onto the Block grid with GOB coding.

    Bits are consumed GOB by GOB in row-major order; within a GOB they
    fill the code's data positions and the redundancy Blocks are computed.

    Parameters
    ----------
    data_bits:
        Boolean vector of exactly ``config.bits_per_frame`` bits.
    """
    bits = np.asarray(data_bits, dtype=bool).ravel()
    if bits.size != config.bits_per_frame:
        raise ValueError(
            f"expected {config.bits_per_frame} data bits, got {bits.size}"
        )
    data = bits.reshape(config.n_gobs, config.bits_per_gob)
    return _cells_to_grid(_encode_cells(data, config), config)


def grid_to_data_bits(grid: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """Inverse of :func:`data_bits_to_grid` (with correction for Hamming)."""
    cells, _ = _decode_cells(_gob_cells(_check_grid(grid, config), config), config)
    return _data_of(cells, config).ravel()


def apply_parity_grid(data_grid: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """Recompute every GOB's redundancy Blocks from its data Blocks.

    Takes a grid whose data positions carry bits (redundancy positions are
    ignored) and returns a copy with correct coding Blocks.
    """
    cells = _gob_cells(_check_grid(data_grid, config), config)
    return _cells_to_grid(_encode_cells(_data_of(cells, config), config), config)


def check_parity_grid(grid: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """Code verdict per GOB: a ``(gob_rows, gob_cols)`` boolean array.

    True means the GOB decodes cleanly (XOR parity matches; for Hamming,
    no uncorrectable double error).
    """
    _, ok = _decode_cells(_gob_cells(_check_grid(grid, config), config), config)
    return ok.reshape(config.gob_rows, config.gob_cols)


def decode_gob_grid(
    grid: np.ndarray, config: InFrameConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode (and, for Hamming, repair) a received Block grid.

    Returns ``(corrected_grid, gob_ok, n_corrected)``: the grid with every
    correctable GOB rewritten to its nearest codeword, the per-GOB code
    verdict, and the number of GOBs that were repaired.
    """
    cells = _gob_cells(_check_grid(grid, config), config)
    repaired, ok = _decode_cells(cells, config)
    n_corrected = int(np.any(repaired != cells, axis=1).sum())
    return (
        _cells_to_grid(repaired, config),
        ok.reshape(config.gob_rows, config.gob_cols),
        n_corrected,
    )


# ----------------------------------------------------------------------
# Whole-grid GOB codes: one row of ``m^2`` Block bits per GOB
# ----------------------------------------------------------------------
def _gob_cells(grid: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """The grid as ``(n_gobs, m^2)``: GOBs row-major, Blocks row-major in each."""
    m = config.gob_size
    tiled = grid.reshape(config.gob_rows, m, config.gob_cols, m).swapaxes(1, 2)
    return tiled.reshape(config.n_gobs, m * m)


def _cells_to_grid(cells: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """Inverse of :func:`_gob_cells`."""
    m = config.gob_size
    tiled = cells.reshape(config.gob_rows, config.gob_cols, m, m).swapaxes(1, 2)
    return tiled.reshape(config.block_rows, config.block_cols)


def _encode_cells(data: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """``(n_gobs, bits_per_gob)`` data bits -> ``(n_gobs, m^2)`` GOB cells."""
    if config.gob_code == "hamming84":
        return np.pad(encode_block(data), ((0, 0), (0, 1)))
    return np.column_stack([data, np.bitwise_xor.reduce(data, axis=1)])


def _decode_cells(cells: np.ndarray, config: InFrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """GOB cells -> (cells with every correctable GOB repaired, per-GOB verdict).

    XOR parity only checks: a GOB decodes cleanly when its ``m^2`` bits
    XOR to zero.  A Hamming GOB that does not hold a double error is
    rewritten to its codeword, which also clears the spare 9th Block.
    """
    if config.gob_code == "hamming84":
        words, verdicts = decode_block(cells[:, :8])
        ok = verdicts != VERDICTS.index(DOUBLE_ERROR)
        return np.where(ok[:, None], np.pad(words, ((0, 0), (0, 1))), cells), ok
    # A copy: _gob_cells may return a view of the caller's grid.
    return cells.copy(), ~np.bitwise_xor.reduce(cells, axis=1)


def _data_of(cells: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """The data bits of every GOB as laid out by :func:`_encode_cells`."""
    if config.gob_code == "hamming84":
        return cells[:, list(_DATA_POSITIONS)]
    return cells[:, :-1]


def _check_grid(grid: np.ndarray, config: InFrameConfig) -> np.ndarray:
    grid = np.asarray(grid, dtype=bool)
    if grid.shape != (config.block_rows, config.block_cols):
        raise ValueError(
            f"grid must be {config.block_rows}x{config.block_cols}, got {grid.shape}"
        )
    return grid
