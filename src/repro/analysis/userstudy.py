"""The simulated 8-participant user study.

The paper recruited 8 participants (3 female, 5 male, 21-36, half wearing
glasses, including a designer and a video expert "more sensitive to video
quality"), showed original and multiplexed videos side by side, and asked
for integer flicker ratings 0-4.

:class:`SimulatedPanel` draws 8 seeded :class:`SubjectProfile`\\ s --
individual CFF offsets, contrast-sensitivity gains (two high-sensitivity
"experts"), rating biases -- scores a stimulus through the HVS model per
subject, adds rating noise, quantises to the integer scale, and reports
mean and standard deviation exactly as the paper's Figure 6 does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int
from repro.display.scheduler import DisplayTimeline
from repro.hvs.flicker import FlickerPredictor, SubjectProfile


@dataclass(frozen=True)
class PanelResult:
    """Aggregated ratings for one stimulus."""

    mean_score: float
    std_score: float
    scores: tuple[float, ...]
    model_score: float

    @property
    def satisfactory(self) -> bool:
        """Paper's criterion: 0 and 1 are satisfactory ratings."""
        return self.mean_score < 1.5


class SimulatedPanel:
    """An 8-subject rating panel with seeded individual differences.

    Parameters
    ----------
    n_subjects:
        Panel size (8 in the paper).
    n_experts:
        Subjects with elevated contrast sensitivity (the paper had two:
        a designer and a video expert).
    seed:
        Panel composition seed; a fixed seed reproduces the same "people"
        across experiments, like a real within-subjects study.
    predictor:
        The HVS scorer; defaults to paper-geometry settings.
    rating_noise:
        Standard deviation of per-rating response noise (before integer
        quantisation).
    """

    def __init__(
        self,
        n_subjects: int = 8,
        n_experts: int = 2,
        seed: int = 8,
        predictor: FlickerPredictor | None = None,
        rating_noise: float = 0.25,
    ) -> None:
        check_positive_int(n_subjects, "n_subjects")
        if not (0 <= n_experts <= n_subjects):
            raise ValueError(f"n_experts must be in [0, {n_subjects}], got {n_experts}")
        self.seed = int(seed)
        self.rating_noise = float(rating_noise)
        self.predictor = predictor if predictor is not None else FlickerPredictor()
        rng = np.random.default_rng(seed)
        self.subjects: list[SubjectProfile] = []
        for i in range(n_subjects):
            gain = float(np.exp(rng.normal(0.0, 0.22)))
            if i < n_experts:
                gain *= 1.35
            self.subjects.append(
                SubjectProfile(
                    cff_offset_hz=float(rng.normal(0.0, 2.5)),
                    sensitivity_gain=gain,
                    response_bias=float(rng.normal(0.0, 0.12)),
                )
            )

    def study(
        self,
        timeline: DisplayTimeline,
        duration_s: float | None = None,
        stimulus_seed: int = 0,
        reference: DisplayTimeline | None = None,
    ) -> PanelResult:
        """Rate one stimulus with the whole panel.

        The waveforms are extracted once and scored for the population
        model and every subject in one call.  With a *reference* timeline
        (the original content), ratings reflect the perceived change,
        matching the paper's side-by-side protocol.
        """
        waveforms, sample_rate = self.predictor.region_waveforms(timeline, duration_s, reference)
        carrier_hz = timeline.panel.refresh_hz / 2.0
        # The population-average subject gives the model reference score.
        base_report, *reports = self.predictor.report_from_waveforms(
            waveforms, sample_rate, carrier_hz, (SubjectProfile(), *self.subjects)
        )
        rng = np.random.default_rng((self.seed, stimulus_seed))
        scores = []
        for report in reports:
            rating = report.score + float(rng.normal(0.0, self.rating_noise))
            scores.append(float(np.clip(np.round(rating), 0, 4)))
        values = np.asarray(scores)
        return PanelResult(
            mean_score=float(values.mean()),
            std_score=float(values.std()),
            scores=tuple(scores),
            model_score=base_report.score,
        )
