"""Figure 3: why the naive designs fail and complementary frames do not.

The paper's Figure 3 walks through the insertion patterns the authors
tried first -- V D1 D2 D3, V D V D, V V D D, V V V D -- and reports
"severe flickers" for all of them.  This benchmark plays each naive stream
and the InFrame stream on the same panel, scores them with the simulated
user panel, and checks the paper's verdict: every naive design is rated
as evident-to-strong flicker while InFrame stays satisfactory.

"Severe flickers" describes the stimulus, not one draw of the panel's
rating noise, so every row is rated in the same fixed set of sessions
(stimulus seeds ``stable_seed("fig3", name, k)`` for k = 1..10) and the
verdict is checked on the mean over those sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import stable_seed
from repro.analysis.experiments import FLICKER_PANEL, flicker_config
from repro.analysis.reporting import format_table
from repro.analysis.userstudy import PanelResult, SimulatedPanel
from repro.baselines.naive import NaiveDesign, NaiveScheme
from repro.core.framing import PseudoRandomSchedule
from repro.core.pipeline import InFrameSender
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.video.synthetic import pure_color_video

from conftest import run_once

DURATION_S = 0.4
#: The panel sessions every row is rated in (stimulus-seed index k).
SESSIONS = range(1, 11)
INFRAME = "InFrame (complementary)"


def pooled(sessions: list[PanelResult]) -> PanelResult:
    """Every session's ratings as one panel result: the mean over sessions."""
    scores = tuple(score for result in sessions for score in result.scores)
    return PanelResult(
        mean_score=float(np.mean(scores)),
        std_score=float(np.std(scores)),
        scores=scores,
        model_score=sessions[0].model_score,
    )


@pytest.fixture(scope="module")
def study_results():
    """Per row, its panel result in each of the :data:`SESSIONS`."""
    height, width = FLICKER_PANEL["height"], FLICKER_PANEL["width"]
    config = flicker_config(delta=20.0, tau=12)
    video = pure_color_video(height, width, 127.0, n_frames=30)
    display = DisplayPanel(width=width, height=height, refresh_hz=120.0)
    panel = SimulatedPanel()
    schedule = PseudoRandomSchedule(config)

    timelines = {
        design.value: DisplayTimeline(display, NaiveScheme(config, video, schedule, design))
        for design in NaiveDesign
    }
    timelines[INFRAME] = InFrameSender(config, video, schedule=schedule).timeline()
    return {
        name: [
            panel.study(timeline, DURATION_S, stimulus_seed=stable_seed("fig3", name, k))
            for k in SESSIONS
        ]
        for name, timeline in timelines.items()
    }


def test_fig3_naive_designs(benchmark, emit, study_results):
    results = {name: pooled(sessions) for name, sessions in study_results.items()}
    rows = []
    for name, sessions in study_results.items():
        means = [session.mean_score for session in sessions]
        rows.append([
            name,
            f"{results[name].mean_score:.2f}",
            f"{min(means):.2f}-{max(means):.2f}",
            "satisfactory" if results[name].satisfactory else "flickers",
        ])
    emit(
        "fig3_naive_designs",
        format_table(
            ["scheme", "mean flicker (0-4)", "session min-max", "verdict"],
            rows,
            title=(
                "Figure 3: naive frame-insertion designs vs InFrame "
                f"(delta=20, gray video, {len(SESSIONS)} panel sessions)"
            ),
        ),
    )
    height, width = FLICKER_PANEL["height"], FLICKER_PANEL["width"]
    config = flicker_config(delta=20.0, tau=12)
    video = pure_color_video(height, width, 127.0, n_frames=15)
    run_once(
        benchmark,
        lambda: SimulatedPanel().study(
            InFrameSender(config, video).timeline(), 0.2
        ),
    )

    inframe = results[INFRAME]
    assert inframe.satisfactory
    assert inframe.mean_score < 1.0

    # Every naive design shows "severe flickers" (evident or worse).
    for design in NaiveDesign:
        result = results[design.value]
        assert result.mean_score >= 2.5, (design, result.mean_score)
        assert result.mean_score > inframe.mean_score + 1.5

    # The aggressive design (three data frames per video frame) is at
    # least as bad as the gentlest ratio.
    assert (
        results[NaiveDesign.AGGRESSIVE.value].mean_score
        >= results[NaiveDesign.RATIO_3_1.value].mean_score - 0.5
    )
