"""Sensor model: photon shot noise, read noise, response and quantisation.

The sensor converts a mean photon flux (proportional to scene luminance
times exposure time) into an 8-bit value:

1. ``electrons = luminance * sensitivity * exposure_s`` (mean signal);
2. shot noise: Gaussian approximation of Poisson, ``std = sqrt(electrons)``;
3. read noise: additive Gaussian in electrons;
4. normalisation by full-well capacity, camera gamma, 8-bit quantisation.

The noise of steps 2 and 3 is a pair of standard-normal planes
(:class:`SensorNoise`) that :meth:`SensorModel.draw_noise` draws from a
generator and :meth:`SensorModel.expose` scales and applies.  The planes
depend on the generator and the image shape alone, never on the scene,
so a caller can draw them before the scene exists.

``calibrated_for`` picks the sensitivity so that a chosen reference
luminance lands at a chosen digital level -- a stand-in for auto-exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._util import check_in_range, check_positive


@dataclass(frozen=True)
class SensorNoise:
    """One exposure's standard-normal noise planes, float32, drawn before it.

    ``shot`` is scaled by ``sqrt(electrons)`` and ``read`` by the read
    noise in electrons; ``read`` is None for a sensor without read noise.
    """

    shot: np.ndarray
    read: np.ndarray | None


@dataclass(frozen=True)
class SensorModel:
    """Photometric behaviour of the image sensor.

    Attributes
    ----------
    sensitivity:
        Electrons per (cd/m^2 * second).  The default is calibrated for
        the default panel (300 cd/m^2 peak) at 1/250 s exposure; use
        :meth:`calibrated_for` (or ``CameraModel.auto_exposed``) for other
        panels or exposures.
    full_well:
        Electrons at digital saturation.
    read_noise_electrons:
        Standard deviation of additive read noise, in electrons.
    response_gamma:
        Encoding gamma applied before quantisation (1/2.2-style curves are
        expressed as their exponent, e.g. ``1 / 2.2``).
    """

    sensitivity: float = 54000.0
    full_well: float = 50000.0
    read_noise_electrons: float = 10.0
    response_gamma: float = 1.0 / 2.2

    def __post_init__(self) -> None:
        check_positive(self.sensitivity, "sensitivity")
        check_positive(self.full_well, "full_well")
        check_in_range(self.read_noise_electrons, "read_noise_electrons", 0.0, 1e4)
        check_in_range(self.response_gamma, "response_gamma", 0.1, 1.0)

    def draw_noise(self, rng: np.random.Generator, shape: tuple[int, int]) -> SensorNoise:
        """Draw one exposure's noise planes of *shape* from *rng*.

        The shot plane first, then the read plane when the sensor has read
        noise; each is a float64 ``standard_normal`` draw cast to float32.
        """
        shot = rng.standard_normal(shape).astype(np.float32)
        read = (
            rng.standard_normal(shape).astype(np.float32)
            if self.read_noise_electrons > 0.0
            else None
        )
        return SensorNoise(shot, read)

    def expose(
        self,
        luminance: np.ndarray,
        exposure_s: float,
        noise: SensorNoise | None = None,
    ) -> np.ndarray:
        """Convert a mean-luminance image into an 8-bit capture.

        Parameters
        ----------
        luminance:
            Mean scene luminance over the exposure window (cd/m^2).
        exposure_s:
            Exposure time in seconds.
        noise:
            Noise planes from :meth:`draw_noise` at *luminance*'s shape;
            pass None for a noise-free (expected-value) capture, which the
            tests use to isolate other effects.
        """
        check_positive(exposure_s, "exposure_s")
        electrons = np.asarray(luminance, dtype=np.float32) * np.float32(
            self.sensitivity * exposure_s
        )
        if noise is not None:
            if noise.shot.shape != electrons.shape:
                raise ValueError(
                    f"noise planes {noise.shot.shape} do not match the image "
                    f"{electrons.shape}"
                )
            electrons = electrons + noise.shot * np.sqrt(np.maximum(electrons, 0.0))
            if noise.read is not None:
                electrons = electrons + np.float32(self.read_noise_electrons) * noise.read
        normalized = np.clip(electrons / np.float32(self.full_well), 0.0, 1.0)
        encoded = normalized ** np.float32(self.response_gamma)
        return np.round(encoded * 255.0).astype(np.float32)

    def calibrated_for(
        self,
        reference_luminance: float,
        exposure_s: float,
        target_level: float = 210.0,
    ) -> "SensorModel":
        """Return a copy whose sensitivity maps *reference_luminance* to *target_level*.

        This emulates auto-exposure: the brightest content of interest
        (e.g. the panel's peak luminance) lands near, but below, saturation.
        """
        check_positive(reference_luminance, "reference_luminance")
        check_positive(exposure_s, "exposure_s")
        check_in_range(target_level, "target_level", 1.0, 255.0)
        normalized = (target_level / 255.0) ** (1.0 / self.response_gamma)
        sensitivity = normalized * self.full_well / (reference_luminance * exposure_s)
        return replace(self, sensitivity=sensitivity)

    def snr_at(self, luminance: float, exposure_s: float) -> float:
        """Signal-to-noise ratio (electrons) at a given scene luminance."""
        electrons = luminance * self.sensitivity * exposure_s
        noise = np.sqrt(electrons + self.read_noise_electrons**2)
        return float(electrons / noise) if noise > 0 else float("inf")
