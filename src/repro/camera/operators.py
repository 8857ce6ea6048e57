"""Separable linear capture stages as cached banded operators.

The lens PSF blur and the anti-alias-plus-bilinear resample are separable
linear maps of a 2-D field that depend only on the camera geometry.  Each
1-D stage is built once per geometry as a banded ``scipy.sparse`` CSR
matrix and kept in a bounded LRU; a 2-D stage is then
``rows @ field @ cols.T``.  The lens vignette, a per-pixel gain, is cached
here the same way as a dense read-only mask.

Every matrix is the matrix of the SciPy filter it stands for: it is that
same 1-D filter applied to the columns of the identity.  The identity is
filtered in column chunks, so building an operator never allocates a dense
``n x n`` array.  Applying the matrices differs from running the filters
only in float32 rounding: the order of summation, and where intermediates
are rounded.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

if TYPE_CHECKING:
    from scipy import sparse

#: Identity columns filtered per call while building an operator.
_CHUNK = 32
#: Geometries each operator cache holds before evicting the least recent.
CACHE_SIZE = 32
#: Vignette masks kept; unlike the banded operators a mask is dense, 8 MB
#: at 1920x1080.
MASK_CACHE_SIZE = 8


def filter_matrix(n: int, filt: Callable[[np.ndarray], np.ndarray]) -> sparse.csr_array:
    """The float32 matrix ``M`` with ``M @ x == filt(x)`` for length-*n* columns.

    *filt* maps an ``(n, k)`` array to an ``(m, k)`` one, filtering every
    column alike and independently; ``M`` is ``m x n``.
    """
    # Imported on first build, so set-up and runs without a camera do not
    # pay scipy.sparse's import time and memory.
    from scipy import sparse

    blocks = []
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        eye = np.zeros((n, stop - start))
        eye[start:stop] = np.eye(stop - start)
        # Column-compressed, so a block's index arrays span its own columns only.
        blocks.append(sparse.csc_array(filt(eye).astype(np.float32)))
    return sparse.hstack(blocks, format="csr")


def gaussian_operator(sigma: float, n: int) -> sparse.csr_array:
    """``ndimage.gaussian_filter1d(x, sigma, mode="nearest")`` as an ``n x n`` matrix."""
    return filter_matrix(
        n, lambda x: ndimage.gaussian_filter1d(x, sigma, axis=0, mode="nearest")
    )


def resample_operator(n: int, m: int) -> sparse.csr_array:
    """Anti-alias blur plus bilinear ``grid_mode`` zoom from *n* to *m* samples.

    The blur matches the new sample pitch.  ``ndimage.zoom`` rounds its
    output length, which can miss *m* by one; the last sample then
    repeats (or the extra one is dropped).
    """
    zoom = m / n
    sigma = max(0.0, 0.35 / zoom - 0.3)

    def filt(x: np.ndarray) -> np.ndarray:
        if sigma > 0.0:
            x = ndimage.gaussian_filter1d(x, sigma, axis=0, mode="nearest")
        out = ndimage.zoom(x, (zoom, 1.0), order=1, mode="nearest", grid_mode=True)
        return out[np.minimum(np.arange(m), out.shape[0] - 1)]

    return filter_matrix(n, filt)


@lru_cache(maxsize=CACHE_SIZE)
def blur_operators(
    sigma: float, height: int, width: int
) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Row and column Gaussian PSF operators for a ``height x width`` field."""
    return gaussian_operator(sigma, height), gaussian_operator(sigma, width)


@lru_cache(maxsize=CACHE_SIZE)
def resample_operators(
    src_h: int, src_w: int, dst_h: int, dst_w: int
) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Row and column resample operators from ``src_h x src_w`` to ``dst_h x dst_w``."""
    return resample_operator(src_h, dst_h), resample_operator(src_w, dst_w)


@lru_cache(maxsize=MASK_CACHE_SIZE)
def vignette_mask(vignetting: float, height: int, width: int) -> np.ndarray:
    """The read-only gain field of a lens with corner falloff *vignetting*."""
    rows = np.linspace(-1.0, 1.0, height, dtype=np.float32)[:, None]
    cols = np.linspace(-1.0, 1.0, width, dtype=np.float32)[None, :]
    radius2 = (rows**2 + cols**2) / 2.0  # 1.0 at the corners
    mask = (1.0 - np.float32(vignetting) * radius2).astype(np.float32)
    mask.setflags(write=False)
    return mask


def apply_separable(
    rows: sparse.csr_array, cols: sparse.csr_array, image: np.ndarray
) -> np.ndarray:
    """``rows @ image @ cols.T``, as a Fortran-ordered array.

    A sparse product streams the rows of its dense operand, so the first
    product's result is copied transposed to make the second one stream
    rows as well.
    """
    return (cols @ np.ascontiguousarray((rows @ image).T)).T
