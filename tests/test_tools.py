"""Command-line tools: argument handling and end-to-end invocation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.camera.capture import CameraModel
from repro.display.gamma import GammaCurve
from repro.display.panel import DisplayPanel
from repro.tools import budget, campaign, flicker, report, serve, simulate, sweep, transfer


class TestSimulateCLI:
    def test_runs_quick_scale(self, capsys):
        code = simulate.main(["--video", "gray", "--scale", "quick", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out
        assert "bits/frame" in out

    def test_rejects_unknown_video(self):
        with pytest.raises(SystemExit):
            simulate.main(["--video", "cats"])

    def test_screen_fill_flag(self, capsys):
        code = simulate.main(
            ["--video", "gray", "--scale", "quick", "--screen-fill", "0.8"]
        )
        assert code == 0
        assert "fill=0.8" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = simulate.build_parser().parse_args([])
        assert args.video == "gray"
        assert args.tau == 12
        assert args.json is False

    def test_json_output(self, capsys):
        code = simulate.main(["--video", "gray", "--scale", "quick", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out)
        assert record["video"] == "gray"
        assert 0.0 <= record["bit_accuracy"] <= 1.0
        assert record["throughput_kbps"] == pytest.approx(
            record["throughput_bps"] / 1000.0
        )

    def test_json_carries_wall_clock_timing(self, capsys):
        code = simulate.main(["--video", "gray", "--scale", "quick", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["elapsed_s"] > 0.0
        assert record["frames_per_s"] > 0.0

    def test_workers_flag_matches_serial_stats(self, capsys):
        code = simulate.main(
            ["--video", "gray", "--scale", "quick", "--seed", "3", "--json"]
        )
        serial = json.loads(capsys.readouterr().out)
        code2 = simulate.main(
            [
                "--video", "gray", "--scale", "quick", "--seed", "3",
                "--json", "--workers", "2",
            ]
        )
        parallel = json.loads(capsys.readouterr().out)
        assert code == code2 == 0
        assert parallel["bit_accuracy"] == serial["bit_accuracy"]
        assert parallel["throughput_bps"] == serial["throughput_bps"]

    def test_profile_flag_prints_stage_breakdown(self, capsys):
        code = simulate.main(["--video", "gray", "--scale", "quick", "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "runtime: mode=serial" in out
        assert "render" in out

    def test_profile_json_embeds_runtime_report(self, capsys):
        code = simulate.main(
            ["--video", "gray", "--scale", "quick", "--json", "--profile"]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["runtime"]["frames"] > 0
        assert "render" in record["runtime"]["stages"]


class TestTransferCLI:
    def test_parser_defaults(self):
        args = transfer.build_parser().parse_args([])
        assert args.mode == "fountain"
        assert args.rs_k == 24
        assert args.json is False

    def test_arq_transfer_delivers(self, capsys):
        code = transfer.main(
            ["--bytes", "56", "--mode", "arq", "--seed", "3", "--delta", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "arq" in out and "ok" in out

    def test_json_output(self, capsys):
        code = transfer.main(
            ["--bytes", "56", "--mode", "arq", "--seed", "3", "--json"]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["mode"] == "arq"
        assert record["delivered"] is True
        assert record["elapsed_s"] > 0.0
        assert record["frames_per_s"] > 0.0

    def test_workers_and_profile_flags(self, capsys):
        code = transfer.main(
            [
                "--bytes", "40", "--mode", "plain", "--seed", "3", "--delta", "30",
                "--json", "--workers", "2", "--profile",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert code in (0, 1)  # plain mode may legitimately fail to deliver
        assert record["runtime"]["workers"] == 2
        assert record["runtime"]["frames"] > 0

    def test_file_payload(self, tmp_path, capsys):
        path = tmp_path / "payload.bin"
        path.write_bytes(b"file transfer payload over InFrame!")
        code = transfer.main(
            ["--file", str(path), "--mode", "arq", "--seed", "3"]
        )
        assert code == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            transfer.main(["--mode", "wishful"])

    def test_rejects_out_of_range_loss(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            transfer.main(["--loss", "1.2"])
        assert excinfo.value.code == 2
        assert "--loss" in capsys.readouterr().err

    def test_missing_file_reported_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            transfer.main(["--file", "/no/such/payload.bin"])
        assert excinfo.value.code == 2
        assert "payload.bin" in capsys.readouterr().err


#: Live-telemetry flags with a cadence no collector can keep.
_ZERO_INTERVAL = ["--snapshot-out", "live.jsonl", "--snapshot-interval", "0"]


class TestBadValuesAreUsageErrors:
    """A bad value exits 2 with one ``error:`` line, before any run starts."""

    @pytest.mark.parametrize(
        ("tool", "argv", "message"),
        [
            (simulate, ["--tau", "0"], "tau must be >= 1, got 0"),
            (simulate, ["--delta", "-5"], "amplitude must be in [0.0, 127.0]"),
            (simulate, ["--screen-fill", "0"], "screen_fill must be in [0.05, 1.0]"),
            (simulate, ["--faults", "drop:p=nan"], "--faults: drop.p: value 'nan'"),
            (simulate, _ZERO_INTERVAL, "--snapshot-interval: must be > 0"),
            (transfer, ["--delta", "-5"], "amplitude must be in [0.0, 127.0]"),
            (transfer, _ZERO_INTERVAL, "--snapshot-interval: must be > 0"),
            (serve, ["--delta", "-5"], "amplitude must be in [0.0, 127.0]"),
            (serve, ["--dwell", "-1"], "--dwell must be > 0, got -1"),
            (serve, _ZERO_INTERVAL, "--snapshot-interval: must be > 0"),
            (
                campaign,
                ["run", "--spec", "parameter=tau:8", "--journal", "c.jsonl", *_ZERO_INTERVAL],
                "--snapshot-interval: must be > 0",
            ),
        ],
        ids=[
            "simulate-tau", "simulate-delta", "simulate-screen-fill", "simulate-faults",
            "simulate-interval", "transfer-delta", "transfer-interval", "serve-delta",
            "serve-dwell", "serve-interval", "campaign-interval",
        ],
    )
    def test_bad_value_exits_2(self, capsys, monkeypatch, tmp_path, tool, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            tool.main([*argv, "--scale", "quick"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0], errors


class TestBudgetCLI:
    def test_prints_budget(self, capsys):
        code = budget.main(["--brightness", "127"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SNR at delta=20" in out
        assert "verdict" in out

    def test_dim_operating_point_still_valid(self, capsys):
        assert budget.main(["--brightness", "30"]) == 0

    def test_high_ambient_reported(self, capsys):
        budget.main(["--lux", "5000"])
        out = capsys.readouterr().out
        assert "ambient contrast loss" in out

    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            ([], ("0.779", "0.638", "24.4", "7.3%")),
            (["--brightness", "30"], ("0.446", "0.719", "12.4", "62.9%")),
            (
                ["--lux", "5000", "--exposure", "0.004", "--peak", "450"],
                ("0.586", "0.630", "18.6", "39.5%"),
            ),
        ],
        ids=["defaults", "brightness-30", "lux-5000"],
    )
    def test_prints_pinned_budget(self, capsys, argv, expected):
        assert budget.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        counts, noise, snr, loss = expected
        assert f"  counts per delta unit : {counts}" in lines
        assert f"  noise floor           : {noise} counts RMS" in lines
        assert f"  SNR at delta=20       : {snr}" in lines
        assert f"  ambient contrast loss : {loss}" in lines

    @pytest.mark.parametrize("lux", ["-1", "2.5e5"])
    def test_rejects_lux_out_of_range(self, capsys, lux):
        with pytest.raises(SystemExit) as excinfo:
            budget.main(["--lux", lux])
        assert excinfo.value.code == 2
        assert "--lux" in capsys.readouterr().err


def _office_budget(
    level=127.0, lux=400.0, panel=None, camera=None
) -> budget.LinkBudget:
    """``link_budget`` with the tool's ambient pedestal and auto-exposure."""
    panel = panel or DisplayPanel()
    camera = camera or CameraModel()
    pedestal = lux * budget.PANEL_REFLECTANCE / np.pi
    peak = panel.gamma_curve.peak_luminance * panel.brightness + pedestal
    return budget.link_budget(panel, camera.auto_exposed(peak), pedestal, level)


class TestLinkBudget:
    @pytest.mark.parametrize(
        ("level", "lux", "exposure", "peak", "expected"),
        [
            (127.0, 400.0, 1 / 500, 300.0,
             (0.7785750892464733, 0.6378953887500066, 24.410745177893098,
              0.07269677811153256)),
            (30.0, 400.0, 1 / 500, 300.0,
             (0.4461296373330228, 0.7188430140733106, 12.41243577801605,
              0.6290166152954678)),
            (127.0, 5000.0, 0.004, 450.0,
             (0.5864758047748353, 0.6299046500080525, 18.621097804797536,
              0.39543754456828134)),
        ],
        ids=["defaults", "brightness-30", "lux-5000"],
    )
    def test_pinned_operating_points(self, level, lux, exposure, peak, expected):
        # Exact floats of the CLI's default, --brightness 30 and
        # --lux 5000 --exposure 0.004 --peak 450 budgets.
        result = _office_budget(
            level,
            lux,
            panel=DisplayPanel(gamma_curve=GammaCurve(peak_luminance=peak)),
            camera=CameraModel(exposure_s=exposure),
        )
        assert result == budget.LinkBudget(*expected)

    def test_budget_fields(self):
        result = _office_budget()
        assert result.counts_per_delta > 0
        assert result.noise_floor_counts > 0
        assert result.snr_at_delta_20 > 1.0
        assert 0.0 <= result.ambient_contrast_loss < 1.0

    def test_brighter_operating_point_buys_more_counts(self):
        # Gamma slope grows with level, so one delta unit buys more counts.
        mid = _office_budget(127.0)
        bright = _office_budget(200.0)
        assert bright.counts_per_delta > mid.counts_per_delta

    def test_ambient_loss_grows_with_lux(self):
        quiet = _office_budget(lux=10.0)
        loud = _office_budget(lux=5000.0)
        assert loud.ambient_contrast_loss > quiet.ambient_contrast_loss


class TestFlickerCLI:
    def test_satisfactory_at_paper_point(self, capsys):
        code = flicker.main(["--delta", "20", "--duration", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "satisfactory" in out

    def test_panel_size_flag(self, capsys):
        flicker.main(["--delta", "20", "--duration", "0.2", "--subjects", "4"])
        out = capsys.readouterr().out
        assert "(4 subjects)" in out

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["--tau", "11"], "tau must be even"),
            (["--tau", "0"], "tau must be >= 1"),
            (["--delta", "-5"], "amplitude must be in"),
            (["--brightness", "300"], "value must be in [0, 255]"),
            (["--duration", "0"], "duration_s must be a finite positive number"),
            (["--subjects", "0"], "n_subjects must be >= 1"),
        ],
        ids=["tau-odd", "tau-zero", "delta-negative", "brightness-300", "duration-0", "subjects-0"],
    )
    def test_rejects_bad_arguments(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            flicker.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestSweepCLI:
    def test_tau_sweep(self, capsys):
        code = sweep.main(
            ["--parameter", "tau", "--values", "10", "12", "--scale", "quick"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep of tau" in out
        assert "10" in out and "12" in out

    def test_invalid_value_type(self, capsys):
        code = sweep.main(["--parameter", "tau", "--values", "banana"])
        assert code == 2

    def test_invalid_config_value_reported_in_table(self, capsys):
        code = sweep.main(
            ["--parameter", "tau", "--values", "11", "--scale", "quick"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "invalid" in out

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SystemExit):
            sweep.main(["--parameter", "nonsense", "--values", "1"])

    def test_parallel_sweep_matches_serial_table(self, capsys):
        args = ["--parameter", "tau", "--values", "10", "12", "--scale", "quick"]
        assert sweep.main(args) == 0
        serial_out = capsys.readouterr().out
        assert sweep.main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_distance_is_sweepable(self, capsys):
        code = sweep.main(
            ["--parameter", "distance", "--values", "1.0", "2.0", "--scale", "quick"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep of distance" in out

    def test_seed_count_is_sweepable(self, capsys):
        code = sweep.main(
            ["--parameter", "seeds", "--values", "1", "2", "--scale", "quick"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep of seeds" in out

    def test_value_error_lists_sweepable_keys(self, capsys):
        code = sweep.main(["--parameter", "tau", "--values", "banana"])
        out = capsys.readouterr().out
        assert code == 2
        for key in ("exposure_s", "distance", "seeds"):
            assert key in out

    def test_out_of_range_value_rejected_at_parse_time(self, capsys):
        code = sweep.main(["--parameter", "distance", "--values", "-1"])
        assert code == 2
        assert "must be > 0" in capsys.readouterr().out

    def test_bad_faults_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--parameter", "tau", "--values", "8", "--faults", "drop:q=1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --faults: fault 'drop' has no parameter 'q'" in err
        assert "Traceback" not in err

    def test_spec_keeps_every_digit(self):
        spec = sweep.build_spec("exposure_s", ["0.0016666666666666668", "1e6"])
        assert spec.startswith("parameter=exposure_s:0.0016666666666666668,1000000.0|")


class TestTelemetryCLI:
    """The --telemetry-out / repro.tools.report loop."""

    def test_simulate_writes_loadable_telemetry(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        code = simulate.main(
            ["--scale", "quick", "--seed", "3", "--telemetry-out", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        telemetry = report.load_telemetry(out_path)
        assert telemetry.meta["run"] == "link"
        assert telemetry.metrics["decode.frames"]["value"] >= 1

    def test_report_summary_and_trace(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        trace_path = tmp_path / "trace.json"
        assert simulate.main(["--scale", "quick", "--telemetry-out", str(out_path)]) == 0
        capsys.readouterr()
        code = report.main([str(out_path), "--trace-out", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "decode.frames" in out
        assert "trace events" in out
        trace = json.loads(trace_path.read_text())
        assert report.validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"render", "observe", "decide", "score"} <= names

    def test_report_json_merges_files_exactly(self, capsys, tmp_path):
        paths = []
        for n in (1, 2):
            path = tmp_path / f"run{n}.json"
            assert simulate.main(
                ["--scale", "quick", "--seed", "3", "--telemetry-out", str(path)]
            ) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert report.main(paths + ["--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["meta"]["merged_runs"] == 2
        one = report.load_telemetry(paths[0])
        assert (
            merged["metrics"]["decode.observations"]["value"]
            == 2 * one.metrics["decode.observations"]["value"]
        )

    def test_report_rejects_non_telemetry_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(SystemExit):
            report.main([str(bad)])
        capsys.readouterr()

    def test_sweep_telemetry_covers_every_cell(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = sweep.main(
            [
                "--parameter", "tau", "--values", "10", "12",
                "--scale", "quick", "--telemetry-out", str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        telemetry = report.load_telemetry(out_path)
        assert telemetry.meta["merged_runs"] == 2

    def test_transfer_telemetry_carries_transport_metrics(self, capsys, tmp_path):
        out_path = tmp_path / "transfer.json"
        code = transfer.main(
            [
                "--bytes", "48", "--mode", "fountain", "--scale", "quick",
                "--max-rounds", "2", "--telemetry-out", str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        telemetry = report.load_telemetry(out_path)
        assert telemetry.metrics["transport.rounds"]["value"] >= 1
        assert "fountain.degree" in telemetry.metrics


class TestExpandTelemetryPaths:
    """Directory and glob arguments to repro.tools.report."""

    def _write_runs(self, tmp_path, n=2):
        paths = []
        for i in range(n):
            path = tmp_path / f"run{i}.json"
            assert simulate.main(
                ["--scale", "quick", "--seed", "3", "--telemetry-out", str(path)]
            ) == 0
            paths.append(str(path))
        return paths

    def test_directory_expands_to_sorted_json_files(self, capsys, tmp_path):
        paths = self._write_runs(tmp_path)
        (tmp_path / "notes.txt").write_text("not telemetry")
        capsys.readouterr()
        assert report.expand_telemetry_paths([str(tmp_path)]) == sorted(paths)

    def test_glob_expands_and_plain_paths_pass_through(self, capsys, tmp_path):
        paths = self._write_runs(tmp_path)
        capsys.readouterr()
        expanded = report.expand_telemetry_paths(
            [str(tmp_path / "run*.json"), paths[0]]
        )
        assert expanded == sorted(paths) + [paths[0]]

    def test_empty_expansion_is_an_error_not_a_silence(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no .json files"):
            report.expand_telemetry_paths([str(tmp_path / "empty")])
        with pytest.raises(ValueError, match="matched no files"):
            report.expand_telemetry_paths([str(tmp_path / "nope*.json")])

    def test_report_merges_a_directory_of_runs(self, capsys, tmp_path):
        self._write_runs(tmp_path)
        capsys.readouterr()
        assert report.main([str(tmp_path), "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["meta"]["merged_runs"] == 2


class TestServeCLI:
    """python -m repro.tools.serve end to end at quick scale."""

    def test_serve_writes_report_and_telemetry(self, capsys, tmp_path):
        report_path = tmp_path / "fleet.json"
        telemetry_path = tmp_path / "serve.json"
        code = serve.main(
            [
                "--scale", "quick",
                "--payload-bytes", "48",
                "--cohorts", "solo:n=1,dwell=2.0",
                "--seed", "1",
                "--report-out", str(report_path),
                "--telemetry-out", str(telemetry_path),
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        fleet = json.loads(report_path.read_text())
        assert fleet["receivers"] == 1
        (cohort,) = fleet["cohorts"]
        assert cohort["name"] == "solo"
        assert cohort["delivered"] == 1
        assert cohort["delivery_rate"] == 1.0
        assert cohort["mean_time_to_deliver_s"] is not None
        assert fleet["renders"] >= 1 and fleet["render_reads"] > fleet["renders"]
        assert json.loads(out)["delivery_rate"] == 1.0
        telemetry = report.load_telemetry(telemetry_path)
        assert telemetry.metrics["serve.cohort.solo.delivered"]["value"] == 1
