"""Lens model: point-spread blur and vignetting.

The PSF is modelled as an isotropic Gaussian whose sigma is expressed in
*display* pixels, because what matters for decoding is how much of a
chessboard cell (``p`` display pixels on a side) the lens smears together.
Both stages are fixed per field shape: the blur is a pair of cached banded
operators and the vignette a cached mask, both from
:mod:`repro.camera.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_in_range
from repro.camera.operators import apply_separable, blur_operators, vignette_mask


@dataclass(frozen=True)
class OpticsModel:
    """Lens behaviour between the panel surface and the sensor.

    Attributes
    ----------
    blur_sigma_px:
        Gaussian PSF standard deviation in display pixels.  0 disables blur.
    vignetting:
        Relative luminance falloff at the image corner (0 = none,
        0.2 = corners receive 80% of the centre).
    """

    blur_sigma_px: float = 0.5
    vignetting: float = 0.08

    def __post_init__(self) -> None:
        check_in_range(self.blur_sigma_px, "blur_sigma_px", 0.0, 50.0)
        check_in_range(self.vignetting, "vignetting", 0.0, 0.95)

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Apply PSF blur and vignetting to a linear-luminance image."""
        out = np.asarray(image, dtype=np.float32)
        height, width = out.shape
        if self.blur_sigma_px > 0.0:
            rows, cols = blur_operators(self.blur_sigma_px, height, width)
            out = apply_separable(rows, cols, out)
        if self.vignetting > 0.0:
            out = out * vignette_mask(self.vignetting, height, width)
        return out
