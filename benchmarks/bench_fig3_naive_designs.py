"""Figure 3: why the naive designs fail and complementary frames do not.

The paper's Figure 3 walks through the insertion patterns the authors
tried first -- V D1 D2 D3, V D V D, V V D D, V V V D -- and reports
"severe flickers" for all of them.  This benchmark plays each naive stream
and the InFrame stream on the same panel, scores them with the simulated
user panel, and checks the paper's verdict: every naive design is rated
as evident-to-strong flicker while InFrame stays satisfactory.
"""

from __future__ import annotations

import pytest

from repro._util import stable_seed
from repro.analysis.experiments import FLICKER_PANEL, flicker_config
from repro.analysis.reporting import format_table
from repro.analysis.userstudy import SimulatedPanel
from repro.baselines.naive import NaiveDesign, NaiveScheme
from repro.core.framing import PseudoRandomSchedule
from repro.core.pipeline import InFrameSender
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.video.synthetic import pure_color_video

from conftest import run_once

DURATION_S = 0.4


@pytest.fixture(scope="module")
def study_results():
    height, width = FLICKER_PANEL["height"], FLICKER_PANEL["width"]
    config = flicker_config(delta=20.0, tau=12)
    video = pure_color_video(height, width, 127.0, n_frames=30)
    display = DisplayPanel(width=width, height=height, refresh_hz=120.0)
    panel = SimulatedPanel()
    schedule = PseudoRandomSchedule(config)

    results = {}
    for design in NaiveDesign:
        stream = NaiveScheme(config, video, schedule, design)
        timeline = DisplayTimeline(display, stream)
        results[design.value] = panel.study(
            timeline, DURATION_S, stimulus_seed=stable_seed("fig3", design.value)
        )
    sender = InFrameSender(config, video, schedule=schedule)
    results["InFrame (complementary)"] = panel.study(sender.timeline(), DURATION_S)
    return results


def test_fig3_naive_designs(benchmark, emit, study_results):
    rows = [
        [name, f"{result.mean_score:.2f} +/- {result.std_score:.2f}",
         "satisfactory" if result.satisfactory else "flickers"]
        for name, result in study_results.items()
    ]
    emit(
        "fig3_naive_designs",
        format_table(
            ["scheme", "flicker score (0-4)", "verdict"],
            rows,
            title="Figure 3: naive frame-insertion designs vs InFrame (delta=20, gray video)",
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

    inframe = study_results["InFrame (complementary)"]
    assert inframe.satisfactory
    assert inframe.mean_score < 1.0

    # Every naive design shows "severe flickers" (evident or worse).
    for design in NaiveDesign:
        result = study_results[design.value]
        assert result.mean_score >= 2.5, (design, result.mean_score)
        assert result.mean_score > inframe.mean_score + 1.5

    # The aggressive design (three data frames per video frame) is at
    # least as bad as the gentlest ratio.
    assert (
        study_results[NaiveDesign.AGGRESSIVE.value].mean_score
        >= study_results[NaiveDesign.RATIO_3_1.value].mean_score - 0.5
    )
