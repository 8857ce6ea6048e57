"""Human-vision substrate: CFF, temporal filtering, phantom array, scoring."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.analysis.experiments import flicker_config, flicker_timeline
from repro.analysis.userstudy import SimulatedPanel
from repro.core.config import InFrameConfig
from repro.core.pipeline import InFrameSender
from repro.display.scheduler import DisplayTimeline
from repro.hvs.cff import CFF_RANGE_HZ, critical_flicker_frequency
from repro.hvs.flicker import FlickerPredictor, SubjectProfile
from repro.hvs.perception import perceived_frame, perception_artifacts
from repro.hvs.phantom import (
    PHANTOM_GAIN,
    beam_size_factor,
    duty_cycle_factor,
    phantom_array_energy,
)
from repro.hvs.temporal import (
    CFF_ROLLOFF_HZ,
    LOW_CUTOFF_HZ,
    PEAK_SENSITIVITY_HZ,
    flicker_spectrum,
    luminance_normalizer,
    perceived_flicker_energy,
    sensitivity_weight,
)
from repro.video.synthetic import pure_color_video, sunrise_video


class TestCFF:
    def test_in_literature_range_at_office_luminance(self):
        cff = critical_flicker_frequency(100.0)
        assert 40.0 <= cff <= 50.0

    def test_ferry_porter_monotone(self):
        assert critical_flicker_frequency(200.0) > critical_flicker_frequency(20.0)

    def test_clamped_at_extremes(self):
        lo, hi = CFF_RANGE_HZ
        assert critical_flicker_frequency(1e-9) == lo
        assert critical_flicker_frequency(1e12) == hi

    def test_subject_offset_applied(self):
        base = critical_flicker_frequency(100.0)
        assert critical_flicker_frequency(100.0, offset_hz=3.0) == pytest.approx(base + 3.0)

    def test_vectorised(self):
        out = critical_flicker_frequency(np.array([10.0, 100.0]))
        assert out.shape == (2,)
        assert out[1] > out[0]


class TestSpectrum:
    def test_pure_tone_recovered(self):
        fs = 480.0
        t = np.arange(480) / fs
        wave = 100.0 + 7.0 * np.sin(2 * np.pi * 30.0 * t)
        freqs, amps = flicker_spectrum(wave, fs)
        peak = freqs[np.argmax(amps)]
        assert peak == pytest.approx(30.0, abs=1.5)
        assert amps.max() == pytest.approx(7.0, rel=0.1)

    def test_dc_excluded(self):
        wave = np.full(64, 100.0)
        _, amps = flicker_spectrum(wave, 480.0)
        assert np.all(amps < 1e-9)

    def test_rejects_short_waveform(self):
        with pytest.raises(ValueError):
            flicker_spectrum(np.ones(3), 480.0)


class TestSensitivityWeight:
    def test_passband_near_unity(self):
        weight = sensitivity_weight(np.array([8.0]), 100.0)
        assert weight[0] > 0.8

    def test_above_cff_attenuated(self):
        weight = sensitivity_weight(np.array([60.0]), 100.0)
        assert weight[0] < 0.05

    def test_very_low_frequency_attenuated(self):
        low = sensitivity_weight(np.array([0.2]), 100.0)
        mid = sensitivity_weight(np.array([8.0]), 100.0)
        assert low[0] < mid[0]

    def test_brightness_raises_cff_tail(self):
        dim = sensitivity_weight(np.array([45.0]), 5.0)
        bright = sensitivity_weight(np.array([45.0]), 300.0)
        assert bright[0] > dim[0]

    def test_luminances_broadcast_to_rows_of_scalar_calls(self):
        freqs = np.linspace(1.0, 240.0, 120)
        means = np.array([[0.5], [20.0], [140.0], [900.0]])
        table = sensitivity_weight(freqs, means, cff_offset_hz=-1.7)
        assert table.shape == (4, 120)
        for row, mean in zip(table, means[:, 0]):
            assert np.array_equal(row, sensitivity_weight(freqs, float(mean), cff_offset_hz=-1.7))

    @given(
        n=st.integers(4, 300),
        sample_rate=st.sampled_from([240.0, 480.0, 960.0]),
        offset=st.floats(-6.0, 6.0),
        shape=st.sampled_from(["scalar", "one", "per-frequency", "per-region"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_three_temporary_formula(self, n, sample_rate, offset, shape, seed):
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)[1:]
        rng = np.random.default_rng(seed)
        means = {
            "scalar": lambda: float(rng.uniform(0.0, 400.0)),
            "one": lambda: rng.uniform(0.0, 400.0, 1),
            "per-frequency": lambda: rng.uniform(0.0, 400.0, len(freqs)),
            "per-region": lambda: rng.uniform(0.0, 400.0, (int(rng.integers(1, 30)), 1)),
        }[shape]()
        got = sensitivity_weight(freqs, means, cff_offset_hz=offset)
        expected = _three_temporary_weight(freqs, means, cff_offset_hz=offset)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def _three_temporary_weight(freqs_hz, mean_luminance, cff_offset_hz=0.0):
    """The ``low * band * fusion`` formula that the one-table build replaced, as its oracle."""
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    cff = critical_flicker_frequency(mean_luminance, offset_hz=cff_offset_hz)
    low = freqs / (freqs + LOW_CUTOFF_HZ)
    band = np.where(
        freqs <= PEAK_SENSITIVITY_HZ,
        1.0,
        np.maximum(0.15, 1.0 - 0.5 * np.log2(freqs / PEAK_SENSITIVITY_HZ) * 0.35),
    )
    fusion = 1.0 / (1.0 + np.exp((freqs - cff) / CFF_ROLLOFF_HZ))
    return low * band * fusion


class TestFlickerEnergy:
    def test_fused_carrier_scores_near_zero(self):
        fs = 480.0
        t = np.arange(480) / fs
        fused = 100.0 + 10.0 * np.sign(np.sin(2 * np.pi * 60.0 * t))
        visible = 100.0 + 10.0 * np.sign(np.sin(2 * np.pi * 15.0 * t))
        assert perceived_flicker_energy(fused, fs) < 0.01 * perceived_flicker_energy(
            visible, fs
        )

    def test_energy_scales_with_amplitude_squared(self):
        fs = 480.0
        t = np.arange(480) / fs
        small = 100.0 + 2.0 * np.sin(2 * np.pi * 15.0 * t)
        large = 100.0 + 8.0 * np.sin(2 * np.pi * 15.0 * t)
        ratio = perceived_flicker_energy(large, fs) / perceived_flicker_energy(small, fs)
        assert ratio == pytest.approx(16.0, rel=0.15)

    def test_subject_gain(self):
        fs = 480.0
        t = np.arange(480) / fs
        wave = 100.0 + 5.0 * np.sin(2 * np.pi * 15.0 * t)
        base = perceived_flicker_energy(wave, fs)
        boosted = perceived_flicker_energy(wave, fs, sensitivity_gain=2.0)
        assert boosted == pytest.approx(4.0 * base, rel=1e-6)

    def test_zero_luminance_returns_zero(self):
        assert perceived_flicker_energy(np.zeros(64), 480.0) == 0.0

    def test_normalizer_reference_point(self):
        assert float(luminance_normalizer(100.0)) == pytest.approx(100.0)

    def test_normalizer_sublinear(self):
        ratio = float(luminance_normalizer(400.0)) / float(luminance_normalizer(100.0))
        assert 1.0 < ratio < 4.0


class TestPhantom:
    def test_beam_factor_decreases_with_size(self):
        assert beam_size_factor(1) > beam_size_factor(4) > beam_size_factor(16)

    def test_duty_cycle_factor_decreases(self):
        assert duty_cycle_factor(0.1) > duty_cycle_factor(0.9)

    def test_sharp_transition_scores_higher_than_smooth(self):
        fs = 480.0
        n = 480
        sharp = np.zeros(n)
        sharp[n // 2 :] = 5.0
        smooth = 5.0 / (1 + np.exp(-(np.arange(n) - n / 2) / 20.0))
        e_sharp = phantom_array_energy(sharp, fs, 100.0)
        e_smooth = phantom_array_energy(smooth, fs, 100.0)
        assert e_sharp > 3.0 * e_smooth

    def test_rejects_bad_duty_cycle(self):
        with pytest.raises(ValueError):
            duty_cycle_factor(0.0)

    def test_rejects_short_envelope(self):
        with pytest.raises(ValueError):
            phantom_array_energy(np.ones(1), 480.0, 100.0)


def _stimulus(delta, tau=12, value=127.0):
    config = InFrameConfig(
        element_pixels=2, pixels_per_block=4, block_rows=8, block_cols=12,
        amplitude=delta, tau=tau,
    )
    video = pure_color_video(80, 112, value, n_frames=15)
    return InFrameSender(config, video).timeline()


class TestFlickerPredictor:
    def test_zero_modulation_scores_zero(self):
        predictor = FlickerPredictor(grid=(8, 12))
        report = predictor.report(_stimulus(0.0), duration_s=0.25)
        assert report.score < 0.2

    def test_score_monotone_in_amplitude(self):
        predictor = FlickerPredictor(grid=(8, 12))
        scores = [
            predictor.report(_stimulus(d), duration_s=0.25).score for d in (10.0, 30.0, 60.0)
        ]
        assert scores[0] < scores[1] < scores[2]

    def test_longer_tau_scores_lower(self):
        predictor = FlickerPredictor(grid=(8, 12))
        fast = predictor.report(_stimulus(30.0, tau=8), duration_s=0.4).score
        slow = predictor.report(_stimulus(30.0, tau=20), duration_s=0.4).score
        assert slow < fast

    def test_sensitive_subject_scores_higher(self):
        predictor = FlickerPredictor(grid=(8, 12))
        normal = predictor.report(_stimulus(30.0), duration_s=0.25).score
        keen = predictor.report(
            _stimulus(30.0), duration_s=0.25, subject=SubjectProfile(sensitivity_gain=2.0)
        ).score
        assert keen > normal

    def test_report_fields(self):
        predictor = FlickerPredictor(grid=(8, 12))
        report = predictor.report(_stimulus(20.0), duration_s=0.25)
        assert 0.0 <= report.score <= 4.0
        assert report.region_energies.shape == (8, 12)
        assert report.total_energy == pytest.approx(
            report.flicker_energy + report.phantom_energy
        )

    def test_panel_smaller_than_grid_rejected(self):
        # A 20x30 panel under the default 24x40 grid used to crop to empty
        # cells and score NaN.
        config = InFrameConfig(
            element_pixels=1, pixels_per_block=2, block_rows=4, block_cols=6,
            amplitude=20.0, tau=12,
        )
        small = InFrameSender(config, pure_color_video(20, 30, 127.0, n_frames=15)).timeline()
        with pytest.raises(ValueError, match="20x30 panel is smaller than the 24x40 grid"):
            FlickerPredictor().report(small, duration_s=0.1)
        with pytest.raises(ValueError, match="80x112 panel is smaller than the 8x113 grid"):
            FlickerPredictor(grid=(8, 113)).region_waveforms(_stimulus(20.0), 0.1)
        # One pixel per region is the smallest grid that scores.
        waveforms, _ = FlickerPredictor(grid=(80, 112)).region_waveforms(_stimulus(20.0), 0.1)
        assert waveforms.shape[:2] == (80, 112) and np.isfinite(waveforms).all()

    def test_waveform_grid_mismatch_rejected(self):
        predictor = FlickerPredictor(grid=(4, 4))
        with pytest.raises(ValueError):
            predictor.report_from_waveforms(np.zeros((2, 2, 64)), 480.0, 60.0, [SubjectProfile()])

    @given(st.floats(min_value=1e-8, max_value=10.0))
    @settings(max_examples=30)
    def test_score_range_property(self, energy):
        score = FlickerPredictor.score_from_energy(energy)
        assert 0.0 <= score <= 4.0

    def test_score_monotone_in_energy(self):
        energies = np.logspace(-6, 0, 12)
        scores = [FlickerPredictor.score_from_energy(e) for e in energies]
        assert all(a <= b for a, b in zip(scores, scores[1:]))


class TestSideBySide:
    """Scoring against the original content (the paper's side-by-side protocol)."""

    def test_timeline_against_itself_scores_nothing(self):
        timeline = flicker_timeline(50.0, 12, 200.0, n_video_frames=10)
        report = FlickerPredictor().report(timeline, 0.3, reference=timeline)
        # The per-region mean of a constant row rounds, leaving ~1e-32 of
        # flicker energy where the stimulus itself scores ~1e-2.
        assert report.region_energies.max() < 1e-25
        assert report.phantom_energy == 0.0
        assert report.score < 1e-12
        result = SimulatedPanel().study(timeline, 0.3, reference=timeline)
        assert result.scores == (0.0,) * 8
        assert result.model_score < 1e-12

    def test_reference_of_other_duration_rejected(self):
        timeline = flicker_timeline(20.0, 12, 127.0, n_video_frames=10)
        shorter = flicker_timeline(20.0, 12, 127.0, n_video_frames=6)
        with pytest.raises(ValueError, match="reference"):
            FlickerPredictor().report(timeline, reference=shorter)
        with pytest.raises(ValueError, match="reference"):
            SimulatedPanel().study(timeline, reference=shorter)


def _per_subject_report(predictor, waveforms, sample_rate, carrier_hz, subject):
    """The per-subject scorer that whole-panel scoring replaced, as its oracle.

    Returns ``(score, flicker_energy, phantom_energy, worst_region,
    region_energies)`` computed the old way: one weight row per region and
    every term recomputed for each subject.
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
    weights = np.stack(
        [
            sensitivity_weight(freqs, float(m), cff_offset_hz=subject.cff_offset_hz)
            for m in safe_means[:, 0]
        ]
    )
    flicker = np.sum((contrast * weights) ** 2, axis=1)
    flicker *= subject.sensitivity_gain**2
    flicker = flicker.reshape(rows, cols)

    period = max(int(round(sample_rate / carrier_hz)), 2)
    baseline = ndimage.uniform_filter1d(flat, size=period, axis=1, mode="nearest")
    carrier = flat - baseline
    envelope = np.sqrt(
        np.maximum(ndimage.uniform_filter1d(carrier**2, size=period, axis=1, mode="nearest"), 0.0)
    )
    means = np.maximum(flat.mean(axis=1), 1e-6)
    weber = envelope / np.asarray(luminance_normalizer(means))[:, None]
    slope = np.diff(weber, axis=1) * sample_rate
    energies = np.sum(slope**2, axis=1) / sample_rate / max(n / sample_rate, 1e-9)
    factor = beam_size_factor(predictor.pixel_size_px) * duty_cycle_factor(0.5)
    phantom = PHANTOM_GAIN * energies * factor * subject.sensitivity_gain**2
    phantom = phantom.reshape(rows, cols)

    total = flicker + phantom
    worst_flat = int(np.argmax(total))
    worst = (worst_flat // cols, worst_flat % cols)
    score = predictor.score_from_energy(float(total[worst])) + subject.response_bias
    score = float(np.clip(score, 0.0, 4.0))
    return score, float(flicker[worst]), float(phantom[worst]), worst, total


ORACLE_DURATION_S = 0.3


@pytest.fixture(
    scope="module",
    params=[("left", 20.0, 12, 60.0), ("left", 50.0, 12, 200.0),
            ("right", 20.0, 10, 127.0), ("right", 50.0, 14, 127.0)],
    ids=lambda stim: f"{stim[0]}-d{stim[1]:g}-t{stim[2]}-v{stim[3]:g}",
)
def oracle_stimulus(request):
    """A Fig. 6 stimulus from each half at delta 20 and 50, with its waveforms."""
    _half, delta, tau, value = request.param
    timeline = flicker_timeline(delta, tau, value, n_video_frames=10)
    waveforms, rate = FlickerPredictor().region_waveforms(timeline, ORACLE_DURATION_S)
    return timeline, waveforms, rate


class TestPanelScoringOracle:
    """Whole-panel scoring is bit-identical to scoring each subject alone."""

    @pytest.mark.parametrize("seed", [8, 3])
    def test_panel_matches_per_subject_oracle(self, oracle_stimulus, seed):
        timeline, waveforms, rate = oracle_stimulus
        panel = SimulatedPanel(seed=seed)
        subjects = (SubjectProfile(), *panel.subjects)
        carrier_hz = timeline.panel.refresh_hz / 2.0
        expected = [
            _per_subject_report(panel.predictor, waveforms, rate, carrier_hz, subject)
            for subject in subjects
        ]
        reports = panel.predictor.report_from_waveforms(waveforms, rate, carrier_hz, subjects)
        assert len(reports) == len(subjects)
        for report, (score, flicker, phantom, worst, total) in zip(reports, expected):
            assert (report.score, report.flicker_energy, report.phantom_energy) == (
                score, flicker, phantom
            )
            assert report.worst_region == worst
            assert np.array_equal(report.region_energies, total)

        result = panel.study(timeline, ORACLE_DURATION_S, stimulus_seed=11)
        rng = np.random.default_rng((seed, 11))
        ratings = []
        for score, *_ in expected[1:]:
            rating = score + float(rng.normal(0.0, panel.rating_noise))
            ratings.append(float(np.clip(np.round(rating), 0, 4)))
        assert result.model_score == expected[0][0]
        assert result.scores == tuple(ratings)

    def test_report_matches_per_subject_oracle(self, oracle_stimulus):
        timeline, waveforms, rate = oracle_stimulus
        predictor = FlickerPredictor()
        expert = SimulatedPanel().subjects[0]
        for subject in (None, expert):
            report = predictor.report(timeline, ORACLE_DURATION_S, subject=subject)
            score, flicker, phantom, worst, total = _per_subject_report(
                predictor, waveforms, rate, 60.0, subject or SubjectProfile()
            )
            assert (report.score, report.flicker_energy, report.phantom_energy) == (
                score, flicker, phantom
            )
            assert report.worst_region == worst
            assert np.array_equal(report.region_energies, total)



@st.composite
def scoring_cases(draw):
    """Random region waveforms on a 1x1 to 4x5 grid, with some constant and all-zero regions.

    Returns ``(waveforms, sample_rate, carrier_hz, subjects)``.  Lengths run
    4-300, both sides of NumPy's 128-term pairwise split.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    n = draw(st.one_of(st.integers(4, 128), st.integers(129, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = rng.uniform(0.0, 300.0, (rows, cols, 1))
    swing = rng.uniform(0.0, 40.0, (rows, cols, 1))
    waveforms = np.maximum(level + swing * rng.uniform(-1.0, 1.0, (rows, cols, n)), 0.0)
    kinds = draw(st.lists(st.sampled_from(["wave", "wave", "constant", "zero"]),
                          min_size=rows * cols, max_size=rows * cols))
    for region, kind in zip(waveforms.reshape(rows * cols, n), kinds):
        if kind != "wave":
            region[:] = 0.0 if kind == "zero" else level.flat[0]
    sample_rate = draw(st.sampled_from([240.0, 480.0, 960.0]))
    carrier_hz = draw(st.sampled_from([30.0, 60.0, 120.0]))
    subjects = draw(st.lists(
        st.builds(
            SubjectProfile,
            cff_offset_hz=st.floats(-6.0, 6.0),
            sensitivity_gain=st.floats(0.25, 4.0),
            response_bias=st.floats(-1.0, 1.0),
        ),
        min_size=1, max_size=3,
    ))
    return waveforms, sample_rate, carrier_hz, subjects


class TestScoringWorkspace:
    """Scoring in one reused workspace keeps every per-subject result bit for bit."""

    @given(scoring_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_subject_oracle(self, case):
        waveforms, sample_rate, carrier_hz, subjects = case
        predictor = FlickerPredictor(grid=waveforms.shape[:2])
        reports = predictor.report_from_waveforms(waveforms, sample_rate, carrier_hz, subjects)
        for report, subject in zip(reports, subjects, strict=True):
            score, flicker, phantom, worst, total = _per_subject_report(
                predictor, waveforms, sample_rate, carrier_hz, subject
            )
            assert (report.score, report.flicker_energy, report.phantom_energy) == (
                score, flicker, phantom
            )
            assert report.worst_region == worst
            assert np.array_equal(report.region_energies, total)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_than_four_samples_rejected(self, n):
        # Two samples make an all-zero Hann window, which scored NaN.
        waveforms = np.linspace(90.0, 110.0, 4 * n).reshape(2, 2, n)
        with pytest.raises(ValueError, match=">= 4 samples"):
            FlickerPredictor(grid=(2, 2)).report_from_waveforms(
                waveforms, 480.0, 60.0, [SubjectProfile()]
            )

    def test_four_samples_score_finite(self):
        waveforms = np.array([100.0, 120.0, 80.0, 110.0]) * np.ones((2, 2, 1))
        (report,) = FlickerPredictor(grid=(2, 2)).report_from_waveforms(
            waveforms, 480.0, 60.0, [SubjectProfile()]
        )
        assert np.isfinite(report.score) and np.isfinite(report.region_energies).all()
        assert report.total_energy > 0.0

    def test_one_call_allocates_at_most_its_working_set(self):
        """The traced allocation peak of one whole-panel call stays within the design's arrays.

        In units of ``waveforms.nbytes`` (R regions x n samples of float64;
        960 x 240 on a Fig. 6 stimulus), the call holds at most, at once:

        - the workspace, R x n float64: 1;
        - the rfft spectrum, R x (n // 2 + 1) complex128: (n + 2) / n, about
          1.01.  It is freed before the phantom slope, R x (n - 1) float64,
          is taken, so the slope never adds to it;
        - the contrast table, R x n // 2 float64: 0.5;
        - one subject's table, R x n // 2 float64: 0.5.  While the next
          subject's table is built the last one is still bound, but by then
          the spectrum is freed;
        - vectors of one float64 per region (each report keeps its region
          energies; the means, normaliser, CFF and energies come and go) or
          per sample (the window, frequencies and band): at most
          ``len(subjects) + 16`` of the first and 16 of the second.
        """
        timeline = flicker_timeline(20.0, 12, 127.0)
        panel = SimulatedPanel(seed=1)
        subjects = (SubjectProfile(), *panel.subjects)
        waveforms, rate = panel.predictor.region_waveforms(timeline, 0.5)
        regions, n = waveforms.shape[0] * waveforms.shape[1], waveforms.shape[2]
        assert (regions, n, len(subjects)) == (960, 240, 9)
        bound = (
            regions * n * 8
            + regions * (n // 2 + 1) * 16
            + 2 * regions * (n // 2) * 8
            + (len(subjects) + 16) * regions * 8
            + 16 * n * 8
        )
        panel.predictor.report_from_waveforms(waveforms, rate, 60.0, subjects)  # imports
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            panel.predictor.report_from_waveforms(waveforms, rate, 60.0, subjects)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bound < 3.2 * waveforms.nbytes
        assert peak - before <= bound

def _numpy_region_means(field, rows, cols):
    """NumPy's reshape-and-mean, which FlickerPredictor._region_means reproduces bit for bit."""
    height, width = field.shape
    r, k = height // rows, width // cols
    return field[: rows * r, : cols * k].reshape(rows, r, cols, k).mean(axis=(1, 3))


#: Cell widths in each regime of NumPy's pairwise sum: in order, one block of
#: eight running sums, several blocks, and split in halves.
CELL_WIDTHS = st.one_of(
    st.integers(1, 7), st.integers(8, 15), st.integers(16, 128), st.integers(129, 300)
)


@st.composite
def region_fields(draw):
    """A float32 or float64 field on a grid of two or more columns, cropped or not.

    Returns ``(samples, row_of, field, rows, cols)``: *field* as a batch of
    one, either itself (``row_of`` None) or as distinct rows with
    ``field == samples[0][row_of]``.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    r, k = draw(st.integers(1, 30)), draw(CELL_WIDTHS)
    cropped = draw(st.booleans())
    # Fewer leftover rows and columns than the grid has, so the cells keep their size.
    extra_h = draw(st.integers(0, rows - 1)) if cropped else 0
    extra_w = draw(st.integers(1, cols - 1)) if cropped else 0
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    height, width = rows * r + extra_h, cols * k + extra_w
    # Values over many decades, so any other order of the additions shows in the last bits.
    if not draw(st.booleans()):
        field = rng.lognormal(0.0, 3.0, size=(height, width)).astype(dtype)
        return field[None], None, field, rows, cols
    # Any map onto any number of distinct rows, in or out of order.
    distinct = rng.lognormal(0.0, 3.0, size=(draw(st.integers(1, height)), width)).astype(dtype)
    row_of = rng.integers(0, len(distinct), size=height)
    return distinct[None], row_of, distinct[row_of], rows, cols


#: The 25 Fig. 6 stimuli of the benchmark's flicker workload as (delta, tau, base value).
FIG6_STIMULI = [
    (delta, 12, float(value))
    for delta in (20.0, 50.0)
    for value in (60, 80, 100, 120, 140, 160, 180, 200)
] + [(delta, tau, 127.0) for delta in (20.0, 30.0, 50.0) for tau in (10, 12, 14)]


def _fig6(delta, tau, value):
    return lambda: flicker_timeline(delta, tau, value, n_video_frames=4)


def _sunrise(delta):
    """A dense (textured) source on the Fig. 6 panel: played pixel by pixel."""
    config = flicker_config(delta, 12)
    return lambda: InFrameSender(config, sunrise_video(240, 400, n_frames=4)).timeline()


def _oracle_waveforms(predictor, make_timeline, duration_s, make_reference=None):
    """``region_waveforms`` one sample at a time: ``luminance_at``, then NumPy's mean."""
    timeline = make_timeline()
    rows, cols = predictor.grid
    rate = timeline.panel.refresh_hz * predictor.oversample
    n_samples = max(int(round(min(duration_s, timeline.duration_s) * rate)), 8)
    times = (np.arange(n_samples) + 0.5) / rate
    fields = [timeline.luminance_at(float(t)) for t in times]
    means = [_numpy_region_means(field, rows, cols) for field in fields]
    waveforms = np.stack(means, axis=2).astype(np.float64)
    if make_reference is not None:
        reference, _ = _oracle_waveforms(predictor, make_reference, duration_s)
        waveforms = waveforms - reference + reference.mean(axis=2, keepdims=True)
    return waveforms, rate


#: (predictor, stimulus, reference) beyond the 25 Fig. 6 stimuli on the default predictor.
WAVEFORM_CASES = {
    "dense-sunrise": (FlickerPredictor(), _sunrise(20.0), None),
    "grid-crops-panel": (FlickerPredictor(grid=(7, 9)), _fig6(50.0, 12, 200.0), None),
    "oversample-3": (FlickerPredictor(oversample=3), _fig6(20.0, 10, 127.0), None),
    "palette-vs-reference": (FlickerPredictor(), _fig6(50.0, 14, 127.0), _fig6(0.0, 14, 127.0)),
    "dense-vs-reference": (FlickerPredictor(grid=(7, 9)), _sunrise(30.0), _sunrise(0.0)),
}


class TestRegionMeansOracle:
    """Whole-grid region means make NumPy's additions in NumPy's order."""

    @given(region_fields())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_mean(self, case):
        samples, row_of, field, rows, cols = case
        means = FlickerPredictor._region_means(samples, row_of, rows, cols)
        expected = _numpy_region_means(field, rows, cols)
        assert means.dtype == expected.dtype
        assert means.shape == (1, rows, cols)
        assert np.array_equal(means[0], expected)

    @pytest.mark.parametrize("delta, tau, value", FIG6_STIMULI)
    def test_fig6_waveforms_match_numpy_mean(self, delta, tau, value):
        # Palette-played stimuli: distinct rows, one batch per display frame.
        _, row_of = _fig6(delta, tau, value)().luminance_rows([0.001, 0.002])
        assert row_of is not None and len(np.unique(row_of)) < len(row_of)
        predictor = FlickerPredictor()
        waveforms, rate = predictor.region_waveforms(_fig6(delta, tau, value)(), 0.1)
        expected, expected_rate = _oracle_waveforms(predictor, _fig6(delta, tau, value), 0.1)
        assert rate == expected_rate
        assert waveforms.dtype == expected.dtype
        assert np.array_equal(waveforms, expected)

    @pytest.mark.parametrize("case", list(WAVEFORM_CASES))
    def test_waveforms_match_sample_by_sample(self, case):
        predictor, make_timeline, make_reference = WAVEFORM_CASES[case]
        reference = None if make_reference is None else make_reference()
        waveforms, rate = predictor.region_waveforms(make_timeline(), 0.1, reference)
        expected, expected_rate = _oracle_waveforms(predictor, make_timeline, 0.1, make_reference)
        assert rate == expected_rate
        assert waveforms.shape == (*predictor.grid, round(0.1 * expected_rate))
        assert np.array_equal(waveforms, expected)

    def test_one_column_grid_stays_close(self):
        # With one column NumPy sums each cell as one run of r * k values, a
        # different order, so this grid is held to rounding only.
        field = np.random.default_rng(5).lognormal(0.0, 3.0, size=(60, 70)).astype(np.float32)
        (means,) = FlickerPredictor._region_means(field[None], None, 6, 1)
        np.testing.assert_allclose(means, _numpy_region_means(field, 6, 1), rtol=1e-5)


class TestPairFusion:
    @pytest.mark.parametrize("value", [60.0, 127.0, 200.0])
    @pytest.mark.parametrize("delta", [10.0, 20.0, 50.0])
    def test_held_pair_fuses_to_video_under_lc(self, delta, value):
        """With the LC response on, a held pair fuses to V plus the gamma term.

        Steps 2-3 of a tau = 12 cycle show the held data frame's + and -
        frames, as steps 0-1 and the previous cycle's steps 10-11 did.

        1. The mean luminance over the pair equals the mean of the two
           frames' ``emitted_luminance`` within 1e-6 relative.  A first-order
           response has unit DC gain: over one period, the integral of the
           output is that of the input minus ``tau * (s_end - s_start)``.
           After four frames of the same pair the state is periodic to
           ``exp(-4 T / tau) ~ 1e-14`` of the swing, so what is left is the
           float32 rounding of ``integrate``, a few units of 6e-8.
        2. The fused excess over ``emitted_luminance(V)`` on a pixel
           modulated by M is ``brightness * local_curvature(V) * M^2 / 2``
           times ``f = ((1+x)^g + (1-x)^g - 2) / (g (g-1) x^2)``, x = M / V.
           For 2 < g < 3 every higher Taylor term of ``(1 +- x)^g`` adds
           with the sign of ``(g-2)(g-3) < 0``, so ``f <= 1``; f falls with
           x and is 0.989 at the worst point here, x = 50/60.  The bound
           [0.98, 1.001] leaves 1e-3 for rounding the excess, which is
           0.33 % of L(V) at the smallest, x = 10/200.  Unmodulated pixels
           show V in both frames, so they stay within 1e-6 of L(V).
        """
        timeline = flicker_timeline(delta, 12, value, n_video_frames=6)
        panel, stream = timeline.panel, timeline.source
        interval = panel.frame_interval_s
        first = 12 + 2
        fused = timeline.integrate(first * interval, (first + 2) * interval).astype(np.float64)
        plus, minus = stream.frame(first), stream.frame(first + 1)
        emitted = [panel.emitted_luminance(frame).astype(np.float64) for frame in (plus, minus)]
        pair_mean = (emitted[0] + emitted[1]) / 2.0
        assert np.max(np.abs(fused - pair_mean) / pair_mean) <= 1e-6

        amplitude = (plus.astype(np.float64) - minus) / 2.0
        modulated = amplitude > 0
        assert modulated.any() and (~modulated).any()
        assert np.all(amplitude[modulated] == delta)  # held, and no pixel clipped
        level = float(panel.emitted_luminance(np.full((1, 1), value, np.float32))[0, 0])
        curvature = float(panel.gamma_curve.local_curvature(value)) * panel.brightness
        factor = (fused[modulated] - level) / (curvature * delta**2 / 2.0)
        assert 0.98 <= factor.min() and factor.max() <= 1.001
        assert np.max(np.abs(fused[~modulated] - level)) <= 1e-6 * level


class TestPerception:
    def test_complementary_stream_fuses_to_video(self):
        # At the paper's delta = 20 the perceived field matches the plain
        # video to within a few percent Weber.  The residual is physical:
        # complementarity holds in pixel values, and the display gamma's
        # convexity leaves a small static DC brightening of 1-Blocks
        # (~ gamma curvature * delta^2), present in the paper's design too.
        timeline = _stimulus(20.0)
        video_frame = pure_color_video(80, 112, 127.0, n_frames=1).frame(0)
        metrics = perception_artifacts(timeline, video_frame, t=0.15)
        assert metrics["max_weber"] < 0.06
        assert metrics["psnr_db"] > 30.0

    def test_gamma_convexity_residual_grows_with_amplitude(self):
        video_frame = pure_color_video(80, 112, 127.0, n_frames=1).frame(0)
        small = perception_artifacts(_stimulus(10.0), video_frame, t=0.15)
        large = perception_artifacts(_stimulus(40.0), video_frame, t=0.15)
        # DC residual scales like delta^2 (second-order gamma term).
        assert large["max_error"] > 8.0 * small["max_error"]

    def test_naive_stream_leaves_artifacts(self):
        # Non-complementary modulation: + every frame.
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=4, block_rows=8, block_cols=12,
            amplitude=40.0, tau=12,
        )
        video = pure_color_video(80, 112, 127.0, n_frames=15)
        sender = InFrameSender(config, video)

        class AlwaysPlus:
            n_frames = sender.stream.n_frames

            def frame(self, i):
                return sender.stream.frame(2 * (i // 2))  # always the + frame

        timeline = DisplayTimeline(sender.panel, AlwaysPlus())
        metrics = perception_artifacts(timeline, video.frame(0), t=0.15)
        assert metrics["max_weber"] > 0.1

    def test_perceived_frame_shape(self):
        timeline = _stimulus(20.0)
        frame = perceived_frame(timeline, 0.1)
        assert frame.shape == (80, 112)

    def test_shape_mismatch_rejected(self):
        timeline = _stimulus(20.0)
        with pytest.raises(ValueError):
            perception_artifacts(timeline, np.zeros((4, 4)), t=0.1)
