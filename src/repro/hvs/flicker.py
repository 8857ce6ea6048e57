"""Flicker scoring on the paper's 0-4 user-study scale.

The paper showed original and multiplexed videos side by side and asked 8
participants to rate flicker: 0 "no difference at all", 1 "almost
unnoticeable", 2 "merely noticeable", 3 "evident flicker", 4 "strong
flicker or artifact" (0 and 1 counting as satisfactory).

:class:`FlickerPredictor` reproduces that judgement from first principles:

1. sample region-mean luminance waveforms from the display timeline on a
   coarse spatial grid (participants report the worst artifact anywhere on
   screen, so the score uses the worst region);
2. score each waveform's steady flicker with
   :func:`repro.hvs.temporal.perceived_flicker_energy`;
3. estimate the data-modulation envelope of each waveform and score its
   transitions with :func:`repro.hvs.phantom.phantom_array_energy`;
4. map total energy to the 0-4 scale with a logistic psychometric curve.

Per-subject variation (CFF offset, sensitivity gain, response noise) is
expressed through :class:`SubjectProfile`; the simulated 8-person panel
lives in :mod:`repro.analysis.userstudy`.  All of steps 2 and 3 except
the subject's weighting and gain runs once per stimulus, so scoring a
whole panel costs little more than scoring one subject.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._util import check_positive, check_positive_int
from repro.display.scheduler import DisplayTimeline
from repro.hvs.phantom import PHANTOM_GAIN, beam_size_factor, duty_cycle_factor
from repro.hvs.temporal import luminance_normalizer, sensitivity_weight

#: Logistic psychometric mapping: energy at which the score crosses 2.0
#: ("merely noticeable").  Calibrated so the paper's satisfactory settings
#: (delta <= 20, tau >= 10) land below 1.
SCORE_MID_LOG10_ENERGY = -2.31
#: Slope of the psychometric curve in decades of energy.
SCORE_SLOPE_PER_DECADE = 1.36


def _pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 with the additions, in order, of NumPy's pairwise sum of a run.

    n < 8: in order onto 0.  n <= 128: eight running sums of every eighth term,
    then ``((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))``, then the n % 8 tail in order.
    Longer runs: the halves split at n / 2 rounded down to a multiple of 8.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        total, tail = np.zeros(values.shape[1:], values.dtype), values
    else:
        full = n - n % 8
        sums = values[:8]
        for start in range(8, full, 8):
            sums = np.add(sums, values[start : start + 8], order="C")
        pairs = np.add(sums[0::2], sums[1::2], order="C")  # C order: loop along the grid
        quads = pairs[0::2] + pairs[1::2]
        total, tail = quads[0] + quads[1], values[full:]
    for term in tail:
        total += term
    return total


@dataclass(frozen=True)
class SubjectProfile:
    """One (simulated) user-study participant.

    Attributes
    ----------
    cff_offset_hz:
        Individual CFF deviation from the Ferry-Porter population mean.
    sensitivity_gain:
        Multiplicative contrast-sensitivity factor (1.0 = average; the
        paper notes a designer and a video expert were "more sensitive").
    response_bias:
        Additive bias on the reported 0-4 score (rating style).
    """

    cff_offset_hz: float = 0.0
    sensitivity_gain: float = 1.0
    response_bias: float = 0.0


@dataclass(frozen=True)
class FlickerReport:
    """Outcome of scoring one stimulus."""

    score: float
    flicker_energy: float
    phantom_energy: float
    worst_region: tuple[int, int]
    region_energies: np.ndarray

    @property
    def total_energy(self) -> float:
        """Combined perceptual energy driving the score."""
        return self.flicker_energy + self.phantom_energy

    @property
    def satisfactory(self) -> bool:
        """True if the score is in the paper's satisfactory band (< 1.5)."""
        return self.score < 1.5


class FlickerPredictor:
    """Predict the paper's 0-4 flicker score for a display timeline.

    Parameters
    ----------
    grid:
        ``(rows, cols)`` of the spatial scoring grid.  The default is
        Block-scale (the paper's naive-design artifacts are *per-block*
        luminance jumps, which coarse regions would average away); a
        region the size of a coding Block subtends roughly a degree at
        the paper's viewing distance, well within foveal flicker acuity.
    oversample:
        Temporal samples per display refresh (>= 2 to resolve the LC
        response shape).
    pixel_size_px:
        Super-Pixel side used for the phantom-array beam factor.

    Notes
    -----
    The timeline is sampled one display frame at a time: the ``oversample``
    samples of a frame come from one :meth:`DisplayTimeline.luminance_rows`
    call, on the class map's distinct rows when the stimulus is played as
    palettes, and are reduced to region means together.
    """

    def __init__(
        self,
        grid: tuple[int, int] = (24, 40),
        oversample: int = 4,
        pixel_size_px: int = 4,
    ) -> None:
        rows, cols = grid
        self.grid = (check_positive_int(rows, "grid rows"), check_positive_int(cols, "grid cols"))
        self.oversample = check_positive_int(oversample, "oversample")
        self.pixel_size_px = check_positive_int(pixel_size_px, "pixel_size_px")

    # ------------------------------------------------------------------
    # Waveform extraction
    # ------------------------------------------------------------------
    def region_waveforms(
        self,
        timeline: DisplayTimeline,
        duration_s: float | None = None,
        reference: DisplayTimeline | None = None,
    ) -> tuple[np.ndarray, float]:
        """Region-mean luminance waveforms on the scoring grid.

        Returns ``(waveforms, sample_rate_hz)`` with waveforms shaped
        ``(rows, cols, n_samples)``.  The samples are taken one display
        frame at a time (:meth:`DisplayTimeline.luminance_rows`), and each
        frame's batch is reduced to region means at once.

        *reference* is an optional timeline of the *original*
        (unmultiplexed) content.  The paper's panel rated original and
        multiplexed videos side by side, i.e. the perceived *change*: with
        a reference, the content's own temporal activity (motion, film
        grain) is subtracted out and only the added modulation is left.
        The reference's mean luminance still sets the adaptation state.
        """
        rows, cols = self.grid
        panel = timeline.panel
        if panel.height < rows or panel.width < cols:
            size = f"{panel.height}x{panel.width}"
            raise ValueError(f"a {size} panel is smaller than the {rows}x{cols} grid (rows x cols)")
        duration = timeline.duration_s if duration_s is None else float(duration_s)
        duration = min(duration, timeline.duration_s)
        check_positive(duration, "duration_s")
        sample_rate = panel.refresh_hz * self.oversample
        n_samples = max(int(round(duration * sample_rate)), 8)
        times = (np.arange(n_samples) + 0.5) / sample_rate
        waveforms = np.empty((rows, cols, n_samples), dtype=np.float64)
        start = 0
        for _, frame_times in itertools.groupby(times.tolist(), key=timeline.frame_index_at):
            samples, row_of = timeline.luminance_rows(list(frame_times))
            stop = start + len(samples)
            means = self._region_means(samples, row_of, rows, cols)
            waveforms[:, :, start:stop] = means.transpose(1, 2, 0)
            start = stop
        if reference is not None:
            ref_waveforms, ref_rate = self.region_waveforms(reference, duration_s)
            if ref_waveforms.shape != waveforms.shape or ref_rate != sample_rate:
                raise ValueError("reference timeline must match the stimulus geometry")
            ref_means = ref_waveforms.mean(axis=2, keepdims=True)
            waveforms = waveforms - ref_waveforms + ref_means
        return waveforms, sample_rate

    @staticmethod
    def _region_means(
        samples: np.ndarray, row_of: np.ndarray | None, rows: int, cols: int
    ) -> np.ndarray:
        """Mean of each r x k cell of a rows x cols partition of each field of a batch.

        Field i is ``samples[i][row_of]``, or ``samples[i]`` when *row_of* is
        None (see :meth:`DisplayTimeline.luminance_rows`); the result is
        shaped ``(len(samples), rows, cols)``.  Bit for bit
        ``cropped.reshape(rows, r, cols, k).mean(axis=(1, 3))`` per field
        when ``cols >= 2``: NumPy's additions in NumPy's order (each cell row
        summed pairwise, the r row sums added in order onto 0, one division),
        so every score and digest holds, as about k + r whole-batch
        operations.  A cell row lies in one field row, so its sum is made
        once per distinct row and taken through *row_of*.  (With one column
        NumPy sums a cell as one run.)
        """
        n = len(samples)
        height = samples.shape[1] if row_of is None else len(row_of)
        r, k = height // rows, samples.shape[2] // cols
        if row_of is None:
            samples = samples[:, : rows * r]
        # (k, n, distinct rows, cols): each operation runs along the whole batch.
        cells = samples[:, :, : cols * k].reshape(n, -1, cols, k).transpose(3, 0, 1, 2)
        row_sums = _pairwise_sum(cells)
        if row_of is not None:
            row_sums = row_sums[:, row_of[: rows * r]]
        row_sums = row_sums.reshape(n, rows, r, cols)
        means = np.zeros((n, rows, cols), dtype=samples.dtype)
        for j in range(r):
            means += row_sums[:, :, j]
        means /= r * k  # NumPy divides a float32 sum in float64: the same rounded quotient
        return means

    @staticmethod
    def estimate_envelope(waveform: np.ndarray, sample_rate_hz: float, carrier_hz: float) -> np.ndarray:
        """Estimate the data-modulation amplitude envelope of a waveform.

        High-passes away the video content (anything slower than the
        complementary carrier), then takes a moving RMS over one carrier
        period.  The complementary carrier is a square wave, whose RMS
        equals its amplitude, so no crest-factor correction is applied.
        """
        samples = np.asarray(waveform, dtype=np.float64)
        period = max(int(round(sample_rate_hz / carrier_hz)), 2)
        kernel = np.ones(period) / period
        baseline = np.convolve(samples, kernel, mode="same")
        carrier = samples - baseline
        return np.sqrt(np.maximum(np.convolve(carrier**2, kernel, mode="same"), 0.0))

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def report(
        self,
        timeline: DisplayTimeline,
        duration_s: float | None = None,
        subject: SubjectProfile | None = None,
        reference: DisplayTimeline | None = None,
    ) -> FlickerReport:
        """Score a display timeline for one subject (default: the population).

        See the module docstring for the steps, and :meth:`region_waveforms`
        for the side-by-side *reference*.
        """
        waveforms, sample_rate = self.region_waveforms(timeline, duration_s, reference)
        carrier_hz = timeline.panel.refresh_hz / 2.0
        (report,) = self.report_from_waveforms(
            waveforms, sample_rate, carrier_hz, (subject or SubjectProfile(),)
        )
        return report

    def report_from_waveforms(
        self,
        waveforms: np.ndarray,
        sample_rate: float,
        carrier_hz: float,
        subjects: Sequence[SubjectProfile],
    ) -> list[FlickerReport]:
        """Score pre-extracted region waveforms once per subject, in order.

        The spectrum, the Weber contrast and the phantom slope energy do not
        depend on the subject, so they are computed once for the stimulus;
        each subject adds only a CFF-shifted sensitivity weighting and a
        squared gain.
        """
        rows, cols = self.grid
        if waveforms.shape[:2] != (rows, cols):
            raise ValueError(
                f"waveforms grid {waveforms.shape[:2]} does not match predictor {self.grid}"
            )
        freqs, contrast, safe_means = self._weber_spectrum(waveforms, sample_rate)
        phantom_base = self._phantom_energies(waveforms, sample_rate, carrier_hz)
        reports = []
        for subject in subjects:
            weights = sensitivity_weight(freqs, safe_means, cff_offset_hz=subject.cff_offset_hz)
            flicker = np.sum((contrast * weights) ** 2, axis=1)
            flicker *= subject.sensitivity_gain**2
            phantom = phantom_base * subject.sensitivity_gain**2
            total = flicker + phantom
            worst_flat = int(np.argmax(total))
            score = self.score_from_energy(float(total[worst_flat])) + subject.response_bias
            reports.append(
                FlickerReport(
                    score=float(np.clip(score, 0.0, 4.0)),
                    flicker_energy=float(flicker[worst_flat]),
                    phantom_energy=float(phantom[worst_flat]),
                    worst_region=(worst_flat // cols, worst_flat % cols),
                    region_energies=total.reshape(rows, cols),
                )
            )
        return reports

    @staticmethod
    def _weber_spectrum(
        waveforms: np.ndarray, sample_rate: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The subject-independent half of :func:`repro.hvs.temporal.perceived_flicker_energy`.

        Returns ``(freqs, contrast, safe_means)``: the DC-free frequencies,
        each region's Weber-contrast spectrum as a ``(regions, freqs)``
        table, and the region mean luminances shaped ``(regions, 1)``.
        """
        rows, cols, n = waveforms.shape
        flat = waveforms.reshape(rows * cols, n)
        means = flat.mean(axis=1, keepdims=True)
        window = np.hanning(n)
        gain = window.sum() / n
        spectrum = np.fft.rfft((flat - means) * window, axis=1)
        amplitudes = 2.0 * np.abs(spectrum[:, 1:]) / (n * gain)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)[1:]
        safe_means = np.maximum(means, 1e-6)
        contrast = amplitudes / luminance_normalizer(safe_means)
        return freqs, contrast, safe_means

    def _phantom_energies(
        self,
        waveforms: np.ndarray,
        sample_rate: float,
        carrier_hz: float,
    ) -> np.ndarray:
        """Vectorised :func:`repro.hvs.phantom.phantom_array_energy` per region, at gain 1."""
        from scipy import ndimage

        rows, cols, n = waveforms.shape
        flat = waveforms.reshape(rows * cols, n)
        period = max(int(round(sample_rate / carrier_hz)), 2)
        baseline = ndimage.uniform_filter1d(flat, size=period, axis=1, mode="nearest")
        carrier = flat - baseline
        rms = np.sqrt(
            np.maximum(
                ndimage.uniform_filter1d(carrier**2, size=period, axis=1, mode="nearest"),
                0.0,
            )
        )
        envelope = rms
        means = np.maximum(flat.mean(axis=1), 1e-6)
        weber = envelope / np.asarray(luminance_normalizer(means))[:, None]
        slope = np.diff(weber, axis=1) * sample_rate
        duration_s = n / sample_rate
        energies = np.sum(slope**2, axis=1) / sample_rate / max(duration_s, 1e-9)
        factor = beam_size_factor(self.pixel_size_px) * duty_cycle_factor(0.5)
        return PHANTOM_GAIN * energies * factor

    @staticmethod
    def score_from_energy(energy: float) -> float:
        """Map perceptual energy onto the paper's 0-4 rating scale."""
        if energy <= 0.0:
            return 0.0
        log_energy = np.log10(energy)
        return float(
            4.0
            / (1.0 + np.exp(-SCORE_SLOPE_PER_DECADE * (log_energy - SCORE_MID_LOG10_ENERGY)))
        )
