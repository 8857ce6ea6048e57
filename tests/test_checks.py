"""Tests for the domain-aware static-analysis pass (repro.checks).

The checker itself is exercised through the public CLI
(``python -m repro.tools.check``), the same entry point CI gates on, so
these tests pin the contract users actually depend on: exit codes, rule
ids, JSON shape and the one waiver, the scoped inline suppression.
"""

from __future__ import annotations

import ast
import json
import subprocess
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.checks import all_rules, find_project_root, run_checks
from repro.checks.analysis import ModuleAnalysis
from repro.tools.check import main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "checks"


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    """Run the CLI in-process with --json and parse its report."""
    code = main([*argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def rule_ids(payload: dict) -> set[str]:
    return {finding["rule"] for finding in payload["findings"]}


class TestRuleCatalogue:
    def test_all_rules_have_unique_stable_ids(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
        for rule in rules:
            assert rule.description

    def test_list_rules_cli(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out

    @pytest.mark.parametrize("rule", ["NOPE", "det002"])
    def test_explain_unknown_rule_is_a_usage_error(self, capsys, rule):
        with pytest.raises(SystemExit) as excinfo:
            main([str(FIXTURES / "det002_workunit_violations.py"), "--explain", rule])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown rule {rule!r}" in err
        for known in all_rules():
            assert known.rule_id in err


class TestCleanFixtures:
    @pytest.mark.parametrize(
        "name",
        [
            "rng_clean.py",
            "dtype_clean.py",
            "resources_clean.py",
            "api_clean.py",
            "obs_clean.py",
            "obs002_clean.py",
            "det_clean.py",
            "resources_helper_clean.py",
        ],
    )
    def test_clean_fixture_has_no_findings(self, capsys, name):
        code, payload = run_cli(capsys, str(FIXTURES / name))
        assert code == 0
        assert payload["findings"] == []
        assert payload["files_checked"] == 1


class TestViolatingFixtures:
    # API001 rides along in rng_violations: the RNG004 fixture function
    # necessarily has an unannotated public parameter.
    CASES = {
        "rng_violations.py": {
            "RNG001",
            "RNG002",
            "RNG003",
            "RNG004",
            "RNG005",
            "API001",
        },
        "dtype_violations.py": {"DT001", "DT002"},
        "resources_violations.py": {"RES001", "RES002"},
        "api_violations.py": {"API001"},
        "obs_violations.py": {"OBS001"},
        "obs002_violations.py": {"OBS002"},
        # DET001's unseeded case is also RNG003: different halves of
        # the same bug (unreproducible vs schedule-dependent).
        "det001_violations.py": {"DET001", "RNG003"},
        "det001_module_violations.py": {"DET001"},
        "det002_violations.py": {"DET002"},
        "det002_workunit_violations.py": {"DET002"},
        "det003_violations.py": {"DET003"},
        "det003_journal_violations.py": {"DET003"},
        "det004_violations.py": {"DET004"},
        "det_flow_violations.py": {"DET003"},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_violating_fixture_fails_with_expected_rules(self, capsys, name):
        code, payload = run_cli(capsys, str(FIXTURES / name))
        assert code == 1
        assert rule_ids(payload) == self.CASES[name]
        assert payload["exit_code"] == 1
        # Every finding carries a usable location.
        for finding in payload["findings"]:
            assert finding["path"].endswith(name)
            assert finding["line"] >= 1
            assert finding["message"]

    def test_whole_fixture_dir_reports_every_rule(self, capsys):
        code, payload = run_cli(capsys, str(FIXTURES))
        assert code == 1
        expected = set().union(*self.CASES.values())
        assert rule_ids(payload) == expected


class TestInlineSuppression:
    def test_pragma_silences_named_rule_only(self, tmp_path, capsys):
        target = tmp_path / "suppressed.py"
        target.write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "def f() -> np.random.Generator:\n"
            "    return np.random.default_rng()  # checks: ignore[RNG003] fixture\n"
        )
        code, payload = run_cli(capsys, str(target))
        assert code == 0
        assert payload["findings"] == []

    def test_pragma_for_other_rule_does_not_silence(self, tmp_path, capsys):
        target = tmp_path / "suppressed.py"
        target.write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "def f() -> np.random.Generator:\n"
            "    return np.random.default_rng()  # checks: ignore[DT001]\n"
        )
        code, payload = run_cli(capsys, str(target))
        assert code == 1
        assert rule_ids(payload) == {"RNG003"}

    def test_bare_pragma_does_not_silence(self, tmp_path, capsys):
        target = tmp_path / "suppressed.py"
        target.write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "def f() -> np.random.Generator:\n"
            "    return np.random.default_rng()  # checks: ignore\n"
        )
        code, payload = run_cli(capsys, str(target))
        assert code == 1
        assert rule_ids(payload) == {"RNG003"}


class TestJsonReport:
    def test_report_has_exactly_its_keys(self, capsys):
        code, payload = run_cli(capsys, str(FIXTURES / "dtype_violations.py"))
        assert code == 1
        assert set(payload) == {"root", "files_checked", "findings", "exit_code"}
        assert set(payload["findings"][0]) == {
            "rule", "path", "line", "col", "message", "trace"
        }


class TestProjectTree:
    """The tree itself must be clean: no finding outside a scoped pragma."""

    def test_project_scan_is_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, payload = run_cli(capsys)
        assert code == 0
        assert payload["findings"] == []
        assert payload["files_checked"] > 70

    def test_find_project_root(self):
        assert find_project_root(FIXTURES) == REPO_ROOT
        assert find_project_root(REPO_ROOT / "src" / "repro" / "core") == REPO_ROOT

    def test_run_checks_engine_api(self):
        report = run_checks([FIXTURES / "rng_violations.py"], all_rules(), root=REPO_ROOT)
        assert report.files_checked == 1
        assert {f.rule for f in report.findings} >= {"RNG001", "RNG002", "RNG003"}
        for finding in report.findings:
            assert finding.path.startswith("tests/fixtures/checks/")
            # Fingerprints are line-free so SARIF's identity survives reflows.
            assert finding.fingerprint == f"{finding.rule}::{finding.path}::{finding.message}"


class TestLegacyRuleRegression:
    """The dataflow framework swap must not change the PR 3 rules' output.

    Pins the exact per-rule finding counts on the pre-existing fixture
    set; any drift means the engine upgrade altered a legacy rule.
    """

    EXPECTED = {
        "rng_violations.py": {
            "API001": 1,
            "RNG001": 1,
            "RNG002": 1,
            "RNG003": 1,
            "RNG004": 1,
            "RNG005": 1,
        },
        "dtype_violations.py": {"DT001": 1, "DT002": 1},
        "resources_violations.py": {"RES001": 1, "RES002": 1},
        "api_violations.py": {"API001": 4},
        "obs_violations.py": {"OBS001": 2},
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_legacy_fixture_findings_unchanged(self, name):
        report = run_checks([FIXTURES / name], all_rules(), root=REPO_ROOT)
        counts = Counter(finding.rule for finding in report.findings)
        assert dict(counts) == self.EXPECTED[name]


class TestModuleAnalysis:
    def test_worker_discovery_and_import_resolution(self):
        src = textwrap.dedent(
            """
            import time as clock
            from numpy.random import default_rng as mk


            def helper(x):
                return mk(x)


            def entry(task):
                return helper(task)


            def run(pool, items):
                return pool.map(entry, items)
            """
        )
        analysis = ModuleAnalysis(ast.parse(src), src.splitlines())
        workers = analysis.worker_functions()
        assert set(workers) == {"entry", "helper"}
        assert any("dispatched to pool workers" in step for step in workers["entry"])
        assert any(
            "called from worker-scoped entry()" in step for step in workers["helper"]
        )
        assert analysis.resolve_import("clock.time") == "time.time"
        assert analysis.resolve_import("mk") == "numpy.random.default_rng"
        assert analysis.resolve_import("unknown.thing") == "unknown.thing"

    def test_transitive_attribute_calls_cross_helper(self):
        src = textwrap.dedent(
            """
            def _teardown(seg):
                seg.close()


            def create():
                seg = open_segment()
                _teardown(seg)
            """
        )
        analysis = ModuleAnalysis(ast.parse(src), src.splitlines())
        create = analysis.functions["create"]
        assert "close" in analysis.transitive_attribute_calls(create)


class TestDeterminismDataflow:
    def test_explain_prints_source_to_sink_path_det001(self, capsys):
        code = main([str(FIXTURES / "det001_violations.py"), "--explain", "DET001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "3 finding(s) for DET001" in out
        assert "worker-scope" in out  # the evidence step
        assert "seed expression" in out

    def test_explain_prints_interprocedural_path_det002(self, capsys):
        code = main(
            [str(FIXTURES / "det002_workunit_violations.py"), "--explain", "DET002"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "reads the wall clock" in out
        assert "returned by _now() into this call" in out
        assert "returned by _elapsed_since() into this call" in out
        assert "flows into a UnitResult(...) result" in out

    def test_interprocedural_dict_view_detected(self, capsys):
        code, payload = run_cli(capsys, str(FIXTURES / "det_flow_violations.py"))
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["DET003"]

    def test_json_payload_carries_trace(self, capsys):
        code, payload = run_cli(capsys, str(FIXTURES / "det002_violations.py"))
        assert code == 1
        assert payload["findings"]
        assert all(f["trace"] for f in payload["findings"])


class TestSarifExport:
    def test_sarif_document_shape(self, tmp_path, capsys):
        out = tmp_path / "out.sarif"
        code = main(
            [str(FIXTURES / "det002_workunit_violations.py"), "--sarif", str(out)]
        )
        capsys.readouterr()
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-checks"
        catalogue = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"DET001", "DET002", "DET003", "DET004"} <= catalogue
        results = run["results"]
        assert results and all(r["ruleId"] == "DET002" for r in results)
        locations = results[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        assert any(
            "wall clock" in loc["location"]["message"]["text"] for loc in locations
        )

    def test_sarif_empty_when_clean(self, tmp_path, capsys):
        out = tmp_path / "clean.sarif"
        code = main([str(FIXTURES / "det_clean.py"), "--sarif", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"] == []


class TestChangedOnly:
    def _init_repo(self, root: Path) -> None:
        def git(*argv: str) -> None:
            subprocess.run(
                ["git", "-C", str(root), *argv], check=True, capture_output=True
            )

        (root / "pyproject.toml").write_text("[project]\nname='x'\nversion='0'\n")
        (root / "clean.py").write_text("def ok() -> int:\n    return 1\n")
        git("init", "-q")
        git("add", "-A")
        git(
            "-c",
            "user.email=ci@example.invalid",
            "-c",
            "user.name=ci",
            "commit",
            "-q",
            "-m",
            "seed",
        )

    def test_changed_only_scans_only_changed_files(
        self, tmp_path, capsys, monkeypatch
    ):
        self._init_repo(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text((FIXTURES / "dtype_violations.py").read_text())
        monkeypatch.chdir(tmp_path)
        code, payload = run_cli(capsys, "--changed-only")
        assert code == 1
        assert payload["files_checked"] == 1
        assert {f["path"] for f in payload["findings"]} == {"bad.py"}

    def test_changed_only_with_no_changes_passes(self, tmp_path, capsys, monkeypatch):
        self._init_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["--changed-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nothing to check" in out

    def test_falls_back_to_full_scan_outside_git(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\nversion='0'\n")
        (tmp_path / "mod.py").write_text("def ok() -> int:\n    return 1\n")
        monkeypatch.chdir(tmp_path)
        code = main(["--changed-only", "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0
        assert payload["files_checked"] == 1
        assert "falling back to a full scan" in captured.err


class TestParseErrors:
    def test_syntax_error_is_a_failing_finding(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code, payload = run_cli(capsys, str(bad))
        assert code == 1
        assert rule_ids(payload) == {"PARSE"}
