"""Temporal filtering: the flicker-fusion low-pass behaviour.

The paper's Section 2 summarises the vision literature: above CFF the
visual system acts as a linear low-pass filter and only the average
luminance is perceived.  This module scores a luminance waveform by

1. taking its one-sided amplitude spectrum (DC removed),
2. converting amplitudes to Weber contrast (amplitude / mean luminance),
3. weighting each frequency by a band-pass sensitivity that rises from
   very low frequencies, peaks around 8-16 Hz (the classic temporal CSF
   shape) and rolls off steeply around the luminance-dependent CFF,
4. summing the weighted contrast energy.

The result is a scalar "perceived flicker energy" that the score model in
:mod:`repro.hvs.flicker` maps onto the paper's 0-4 scale.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive
from repro.hvs.cff import critical_flicker_frequency

#: Frequency (Hz) below which slow drifts stop reading as flicker.
LOW_CUTOFF_HZ = 1.0
#: Peak of the temporal contrast-sensitivity band.
PEAK_SENSITIVITY_HZ = 10.0
#: Softness (Hz) of the roll-off around CFF; smaller = steeper fusion edge.
CFF_ROLLOFF_HZ = 2.5
#: Exponent of the luminance normalisation.  1 would be pure Weber-law
#: behaviour; near and above CFF the eye is better described by absolute
#: modulation amplitude (the linear-systems regime of the de Lange curves,
#: which is also what makes Ferry-Porter hold), so flicker amplitude is
#: normalised by ``L^0.2`` with the remaining ``L^0.8`` taken at a fixed
#: 100 cd/m^2 reference to keep the measure dimensionless.
LUMINANCE_NORM_EXPONENT = 0.2
#: Reference adaptation luminance (cd/m^2) of the normalisation.
REFERENCE_LUMINANCE = 100.0


def luminance_normalizer(mean_luminance: np.ndarray | float) -> np.ndarray | float:
    """Denominator converting modulation amplitude to perceptual contrast.

    Equals the mean luminance at the 100 cd/m^2 reference (pure Weber
    there) and grows more slowly than luminance elsewhere, so the same
    pixel-value amplitude reads as *stronger* flicker on brighter content
    -- the paper's Fig. 6 (left) trend.
    """
    lum = np.maximum(np.asarray(mean_luminance, dtype=np.float64), 1e-6)
    return lum**LUMINANCE_NORM_EXPONENT * REFERENCE_LUMINANCE ** (
        1.0 - LUMINANCE_NORM_EXPONENT
    )


def flicker_spectrum(
    waveform: np.ndarray, sample_rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided amplitude spectrum of a luminance waveform, DC excluded.

    Returns ``(frequencies_hz, amplitudes)`` where amplitudes are in the
    waveform's units (peak amplitude of each sinusoidal component).
    """
    check_positive(sample_rate_hz, "sample_rate_hz")
    samples = np.asarray(waveform, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 4:
        raise ValueError(f"waveform must be 1-D with >= 4 samples, got shape {samples.shape}")
    n = samples.size
    # A Hann window suppresses leakage from the non-integer number of
    # carrier periods in the analysis window; compensate its coherent gain.
    window = np.hanning(n)
    gain = window.sum() / n
    spectrum = np.fft.rfft((samples - samples.mean()) * window)
    amplitudes = 2.0 * np.abs(spectrum) / (n * gain)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    return freqs[1:], amplitudes[1:]


def sensitivity_weight(
    freqs_hz: np.ndarray,
    mean_luminance: np.ndarray | float,
    cff_offset_hz: float = 0.0,
) -> np.ndarray:
    """Relative temporal contrast sensitivity at each frequency, in [0, 1].

    A band-pass approximation of the temporal CSF: a soft high-pass above
    :data:`LOW_CUTOFF_HZ`, unity in the pass band, and a logistic roll-off
    centred at the Ferry-Porter CFF for the given adaptation luminance.

    *mean_luminance* broadcasts against *freqs_hz*: luminances shaped
    ``(regions, 1)`` give one ``(regions, freqs)`` table, each row equal
    to the scalar call for that region.
    """
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    cff = critical_flicker_frequency(mean_luminance, offset_hz=cff_offset_hz)
    low = freqs / (freqs + LOW_CUTOFF_HZ)
    band = np.where(
        freqs <= PEAK_SENSITIVITY_HZ,
        1.0,
        # Gentle decline from the peak toward CFF (sensitivity falls roughly
        # linearly in log-frequency between the peak and fusion).
        np.maximum(0.15, 1.0 - 0.5 * np.log2(freqs / PEAK_SENSITIVITY_HZ) * 0.35),
    )
    fusion = 1.0 / (1.0 + np.exp((freqs - cff) / CFF_ROLLOFF_HZ))
    return low * band * fusion


def perceived_flicker_energy(
    waveform: np.ndarray,
    sample_rate_hz: float,
    cff_offset_hz: float = 0.0,
    sensitivity_gain: float = 1.0,
) -> float:
    """Weighted Weber-contrast energy of a luminance waveform.

    Parameters
    ----------
    waveform:
        Region-mean luminance samples (cd/m^2), uniformly sampled.
    sample_rate_hz:
        Sampling rate of *waveform*.
    cff_offset_hz, sensitivity_gain:
        Per-subject adjustments used by the simulated user study.
    """
    samples = np.asarray(waveform, dtype=np.float64)
    mean = float(samples.mean())
    if mean <= 1e-6:
        return 0.0
    freqs, amps = flicker_spectrum(samples, sample_rate_hz)
    contrast = amps / luminance_normalizer(mean)
    weights = sensitivity_weight(freqs, mean, cff_offset_hz=cff_offset_hz)
    energy = float(np.sum((contrast * weights) ** 2))
    return energy * float(sensitivity_gain) ** 2
