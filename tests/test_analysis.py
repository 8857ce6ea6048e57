"""Analysis harness: simulated user study, experiment scales, reporting."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ExperimentScale,
    PAPER_FIG6_LEFT,
    PAPER_FIG6_RIGHT,
    PAPER_FIG7,
    fig7_conditions,
    flicker_config,
    flicker_timeline,
)
from repro.analysis.reporting import format_series, format_table, paper_vs_measured
from repro.analysis.userstudy import SimulatedPanel


class TestSimulatedPanel:
    def test_panel_composition_is_seeded(self):
        a = SimulatedPanel(seed=8)
        b = SimulatedPanel(seed=8)
        assert [s.cff_offset_hz for s in a.subjects] == [s.cff_offset_hz for s in b.subjects]

    def test_eight_subjects_with_experts(self):
        panel = SimulatedPanel()
        assert len(panel.subjects) == 8
        gains = sorted(s.sensitivity_gain for s in panel.subjects)
        assert gains[-1] > gains[0]

    def test_expert_count_validated(self):
        with pytest.raises(ValueError):
            SimulatedPanel(n_subjects=4, n_experts=5)

    def test_study_is_deterministic(self):
        timeline = flicker_timeline(20.0, 12, 127.0, n_video_frames=8)
        a = SimulatedPanel().study(timeline, duration_s=0.2, stimulus_seed=3)
        b = SimulatedPanel().study(timeline, duration_s=0.2, stimulus_seed=3)
        assert a.scores == b.scores

    def test_ratings_are_integers_in_scale(self):
        timeline = flicker_timeline(30.0, 12, 127.0, n_video_frames=8)
        result = SimulatedPanel().study(timeline, duration_s=0.2)
        assert all(score == int(score) and 0 <= score <= 4 for score in result.scores)

    def test_satisfactory_for_paper_settings(self):
        timeline = flicker_timeline(20.0, 12, 127.0, n_video_frames=8)
        result = SimulatedPanel().study(timeline, duration_s=0.2)
        assert result.satisfactory
        assert result.mean_score < 1.0

    def test_stronger_amplitude_scores_higher(self):
        panel = SimulatedPanel()
        low = panel.study(flicker_timeline(20.0, 12, 127.0, n_video_frames=8), duration_s=0.2)
        high = panel.study(flicker_timeline(50.0, 12, 127.0, n_video_frames=8), duration_s=0.2)
        assert high.mean_score > low.mean_score


class TestExperimentScale:
    def test_benchmark_scale_ratio_matches_paper(self):
        scale = ExperimentScale.benchmark()
        assert scale.camera_height / scale.video_height == pytest.approx(2 / 3)
        assert scale.camera_width / scale.video_width == pytest.approx(2 / 3)

    def test_full_scale_is_paper_geometry(self):
        scale = ExperimentScale.full()
        assert (scale.video_width, scale.video_height) == (1920, 1080)
        assert (scale.camera_width, scale.camera_height) == (1280, 720)

    def test_config_keeps_bit_budget(self):
        config = ExperimentScale.benchmark().config()
        assert config.bits_per_frame == 1125

    def test_videos_by_name(self):
        scale = ExperimentScale.quick()
        assert float(scale.video("gray").frame(0).mean()) == 127.0
        assert float(scale.video("dark-gray").frame(0).mean()) == 180.0
        assert scale.video("video").n_frames == scale.n_video_frames
        with pytest.raises(ValueError):
            scale.video("cats")

    def test_fig7_condition_grid(self):
        conditions = fig7_conditions()
        assert len(conditions) == 12
        assert ("gray", 20.0, 10) in conditions

    def test_paper_reference_tables_complete(self):
        for video in ("gray", "dark-gray", "video"):
            table = PAPER_FIG7[video]["throughput_kbps"]
            assert set(table) == {(20, 10), (20, 12), (20, 14), (30, 12)}
        assert set(PAPER_FIG6_RIGHT) == {10, 12, 14}
        assert set(PAPER_FIG6_LEFT) == {20, 50}

    def test_flicker_config_fits_panel(self):
        config = flicker_config(20.0, 12)
        assert config.data_height_px <= 240
        assert config.data_width_px <= 400


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_pads_ragged_rows(self):
        table = format_table(["x", "y"], [["only-x"]])
        assert "only-x" in table

    def test_format_series(self):
        out = format_series("S", [1, 2], [3.0, 4.0], x_label="t", y_label="v")
        assert "S" in out and "t" in out and "4.0" in out

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("S", [1], [1, 2])

    def test_paper_vs_measured(self):
        line = paper_vs_measured("tput", 10.0, 11.0, unit=" kbps")
        assert "paper=10.00 kbps" in line and "x1.10" in line

    def test_paper_vs_measured_without_reference(self):
        assert "n/a" in paper_vs_measured("tput", None, 11.0)
