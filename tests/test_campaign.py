"""repro.campaign: spec grammar, journal, queue, master, determinism."""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import threading
import time
import types

import pytest

from repro.campaign import (
    CampaignJournal,
    CampaignJournalError,
    CampaignMaster,
    CampaignQueueError,
    CampaignSpec,
    CampaignSpecError,
    ChaosScheduleError,
    LeaseHealth,
    QueueState,
    SupervisePolicy,
    Supervisor,
    UnitResult,
    UnitStatus,
    classify_lease,
    coerce_sweep_values,
    compact_journal,
    execute_unit,
    journal_status,
    parse_chaos,
    report_from_journal,
    run_chaos_campaign,
)
from repro.campaign.chaos import (
    CHAOS_ENV,
    heartbeat_filter_from_env,
    tamper_from_env,
)
from repro.campaign.supervise import HeartbeatEmitter, JournalTail, Reclaim, lease_health
from repro.runtime.engine import resolve_start_method
from repro.tools import campaign as campaign_cli

# The shared test campaign: 8 units crossing a swept parameter with a
# fault plan and both heal settings -- the matrix shape the determinism
# contract must hold for (faulted units included).
QSPEC = "parameter=tau:8,12|faults=none,drop:p=0.3|heal=on,off"


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    """One journaled serial run of QSPEC: (outcome, journal path)."""
    path = tmp_path_factory.mktemp("campaign") / "journal.jsonl"
    master = CampaignMaster(
        QSPEC, journal=CampaignJournal(path), scale="quick", workers=1
    )
    return master.run(), path


@pytest.fixture(scope="module")
def parallel_run():
    """The same campaign at workers=4, unjournaled."""
    return CampaignMaster(QSPEC, scale="quick", workers=4).run()


class TestCampaignSpec:
    def test_canonical_order_and_defaults(self):
        spec = CampaignSpec.parse("heal=on,off|parameter=tau:8,12")
        assert spec.spec() == (
            "workload=link|video=gray|parameter=tau:8,12|faults=none|heal=on,off"
        )
        assert spec.n_units == 4

    def test_round_trip(self):
        text = "workload=link|video=gray|parameter=tau:8,12|faults=none|heal=on,off"
        assert CampaignSpec.parse(text).spec() == text

    def test_duplicate_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="duplicate axis"):
            CampaignSpec.parse("heal=on|heal=off")

    def test_unknown_axis_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown axis"):
            CampaignSpec.parse("flavor=salty")

    def test_unknown_parameter_lists_sweepable_keys(self):
        with pytest.raises(CampaignSpecError, match="exposure_s"):
            CampaignSpec.parse("parameter=nonsense:1,2")

    def test_bad_faults_value_rejected(self):
        with pytest.raises(CampaignSpecError, match="faults"):
            CampaignSpec.parse("faults=explode:p=0.1")

    def test_workload_parameters_validated(self):
        spec = CampaignSpec.parse("workload=transport:mode=arq+rounds=2")
        assert "transport:mode=arq+rounds=2" in spec.spec()
        with pytest.raises(CampaignSpecError, match="transport"):
            CampaignSpec.parse("workload=transport:mode=telepathy")
        with pytest.raises(CampaignSpecError, match="no parameter"):
            CampaignSpec.parse("workload=link:n=4")

    def test_expansion_is_deterministic(self):
        a = CampaignSpec.parse(QSPEC).expand(scale="quick", seed=7)
        b = CampaignSpec.parse(QSPEC).expand(scale="quick", seed=7)
        assert a == b
        assert [u.index for u in a] == list(range(8))

    def test_unit_seed_depends_only_on_key(self):
        # Adding an axis value must not re-key the units that already existed.
        small = CampaignSpec.parse("parameter=tau:8|heal=on").expand(seed=7)
        large = CampaignSpec.parse("parameter=tau:8|heal=on,off").expand(seed=7)
        by_key = {u.key: u for u in large}
        assert small[0].seed == by_key[small[0].key].seed

    def test_fingerprint_tracks_expansion_inputs(self):
        spec = CampaignSpec.parse(QSPEC)
        assert spec.fingerprint(seed=1) != spec.fingerprint(seed=2)
        assert spec.fingerprint(seed=1) == spec.fingerprint(seed=1)

    def test_seeds_axis_sets_replicates(self):
        units = CampaignSpec.parse("parameter=seeds:2").expand(scale="quick")
        assert units[0].replicates == 2

    def test_numbers_keep_every_digit(self):
        # 1/600 s has 17 significant digits; 1e6 prints '1e+06' under :g,
        # and '+' joins a workload value's pairs.
        spec = CampaignSpec.parse(
            "workload=fleet:dwell=1000000|parameter=exposure_s:0.0016666666666666668"
        )
        assert CampaignSpec.parse(spec.spec()) == spec
        (unit,) = spec.expand(scale="quick")
        assert unit.camera_overrides == (("exposure_s", 1 / 600),)
        assert unit.workload_params == (("dwell", 1e6),)


class TestCoerceSweepValues:
    def test_unknown_key_lists_sweepable(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            coerce_sweep_values("nonsense", ["1"])
        for key in ("tau", "exposure_s", "distance", "seeds"):
            assert key in str(excinfo.value)

    def test_type_coercion(self):
        assert coerce_sweep_values("tau", ["8", "12"]) == (8, 12)
        assert coerce_sweep_values("distance", ["1.5"]) == (1.5,)

    def test_bad_type_reported(self):
        with pytest.raises(CampaignSpecError, match="must be int"):
            coerce_sweep_values("tau", ["banana"])

    def test_range_checks(self):
        with pytest.raises(CampaignSpecError, match=">= 1"):
            coerce_sweep_values("seeds", ["0"])
        with pytest.raises(CampaignSpecError, match="> 0"):
            coerce_sweep_values("distance", ["-1"])


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        assert not journal.exists
        journal.append({"event": "campaign", "format": "repro.campaign/1"})
        journal.append({"event": "queued", "unit": "k", "index": 0})
        contents = journal.read()
        assert journal.exists
        assert not contents.torn_tail
        assert [r["event"] for r in contents.records] == ["campaign", "queued"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.append({"event": "campaign", "format": "repro.campaign/1"})
        journal.append({"event": "queued", "unit": "k", "index": 0})
        text = path.read_text()
        path.write_text(text + '{"event":"leased","unit":"k"')  # no newline, torn
        contents = journal.read()
        assert contents.torn_tail
        assert [r["event"] for r in contents.records] == ["campaign", "queued"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"event":"campaign","format":"repro.campaign/1"}\n'
            "{torn mid-file\n"
            '{"event":"queued","unit":"k","index":0}\n'
        )
        with pytest.raises(CampaignJournalError, match="line 2"):
            CampaignJournal(path).read()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event":"queued","unit":"k","index":0}\n')
        with pytest.raises(CampaignJournalError, match="header"):
            CampaignJournal(path).read()

    def test_empty_journal_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(CampaignJournalError, match="empty"):
            CampaignJournal(path).read()


def _queue_for(keys):
    from repro.campaign.queue import UnitState

    return QueueState(
        units={key: UnitState(key=key, index=index) for index, key in enumerate(keys)}
    )


class TestQueue:
    def test_lifecycle_replay(self):
        state = _queue_for(["a", "b"])
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "expires": 10.0})
        result = UnitResult(index=0, key="a", ok=True, row={"x": 1.0})
        state.apply({"event": "done", "unit": "a", "result": result.as_dict()})
        assert state.units["a"].status is UnitStatus.DONE
        assert state.results()["a"].row == {"x": 1.0}
        assert state.counts() == {
            "queued": 1, "leased": 0, "done": 1, "failed": 0, "quarantined": 0,
        }

    def test_done_is_first_wins(self):
        state = _queue_for(["a"])
        first = UnitResult(index=0, key="a", ok=True, row={"x": 1.0})
        second = UnitResult(index=0, key="a", ok=True, row={"x": 2.0})
        state.apply({"event": "done", "unit": "a", "result": first.as_dict()})
        state.apply({"event": "done", "unit": "a", "result": second.as_dict()})
        assert state.results()["a"].row == {"x": 1.0}

    def test_lease_expiry_and_foreign_owner(self):
        state = _queue_for(["a"])
        state.apply({"event": "leased", "unit": "a", "worker": "dead", "expires": 1e12})
        # A foreign (dead) incarnation's lease is runnable immediately...
        assert [e.key for e in state.runnable(0.0, "me", 3)] == ["a"]
        state.apply({"event": "leased", "unit": "a", "worker": "me", "expires": 100.0})
        # ...our own live lease is not...
        assert state.runnable(50.0, "me", 3) == []
        # ...until it expires.
        assert [e.key for e in state.runnable(200.0, "me", 3)] == ["a"]

    def test_failed_attempts_budget(self):
        state = _queue_for(["a"])
        state.apply({"event": "failed", "unit": "a", "error": "boom", "attempt": 1})
        assert [e.key for e in state.runnable(0.0, "me", 2)] == ["a"]
        state.apply({"event": "failed", "unit": "a", "error": "boom", "attempt": 2})
        assert state.runnable(0.0, "me", 2) == []
        assert [e.key for e in state.exhausted(2)] == ["a"]

    def test_unknown_unit_rejected(self):
        state = _queue_for(["a"])
        with pytest.raises(CampaignQueueError, match="unknown unit"):
            state.apply({"event": "queued", "unit": "zzz", "index": 9})

    def test_unreadable_result_payload_rejected(self):
        state = _queue_for(["a"])
        with pytest.raises(CampaignQueueError, match="unreadable result payload"):
            state.apply({"event": "done", "unit": "a", "result": {"index": 0}})
        assert state.units["a"].status is UnitStatus.QUEUED


class TestExecuteUnit:
    def test_invalid_cell_is_nonretryable(self):
        unit = CampaignSpec.parse("parameter=tau:11").expand(scale="quick")[0]
        result = execute_unit(unit)
        assert not result.ok and not result.retryable
        assert "tau" in result.error

    def test_result_round_trips_through_json(self):
        unit = CampaignSpec.parse("parameter=tau:8").expand(scale="quick")[0]
        result = execute_unit(unit)
        clone = UnitResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert clone == result


class TestDeterminism:
    """The campaign determinism contract (ISSUE acceptance criteria)."""

    def test_workers_do_not_change_the_report(self, journaled_run, parallel_run):
        serial, _ = journaled_run
        assert parallel_run.report.metrics_json() == serial.report.metrics_json()
        assert parallel_run.report.report_json() == serial.report.report_json()

    def test_faulted_units_are_covered(self, journaled_run):
        outcome, _ = journaled_run
        faulted = [r for r in outcome.report.rows if "drop" in r["key"]]
        assert len(faulted) == 4
        assert all(r["status"] == "ok" for r in faulted)

    def test_campaign_counters_in_metrics(self, journaled_run):
        outcome, _ = journaled_run
        metrics = json.loads(outcome.report.metrics_json())
        assert metrics["campaign.units"]["value"] == 8
        assert metrics["campaign.units_ok"]["value"] == 8


class TestResume:
    def test_fresh_run_refuses_existing_journal(self, journaled_run):
        _, path = journaled_run
        master = CampaignMaster(QSPEC, journal=CampaignJournal(path), scale="quick")
        with pytest.raises(CampaignJournalError, match="resume"):
            master.run()

    def test_resume_refuses_foreign_fingerprint(self, journaled_run, tmp_path):
        _, path = journaled_run
        copy = tmp_path / "journal.jsonl"
        shutil.copy(path, copy)
        master = CampaignMaster(
            QSPEC,
            journal=CampaignJournal(copy),
            scale="quick",
            seed=99,  # different expansion than the journal records
        )
        with pytest.raises(CampaignJournalError, match="fingerprint"):
            master.run(resume=True)

    def test_truncated_journal_resumes_byte_identical(self, journaled_run, tmp_path):
        outcome, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"event":"done"' in line]
        # Keep everything up to (and including) the third completion --
        # the shape a SIGKILL between appends leaves behind.
        copy = tmp_path / "journal.jsonl"
        copy.write_text("".join(lines[: done[2] + 1]))
        master = CampaignMaster.resume(CampaignJournal(copy), workers=1)
        resumed = master.run(resume=True)
        assert resumed.stats.reused == 3
        assert resumed.stats.executed == 5
        assert resumed.report.metrics_json() == outcome.report.metrics_json()
        assert resumed.report.report_json() == outcome.report.report_json()

    def test_torn_final_line_resumes_cleanly(self, journaled_run, tmp_path):
        """Regression: a crash-torn last record must not poison resume."""
        outcome, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"event":"done"' in line]
        kept = lines[: done[1] + 1]
        torn = lines[done[2]][: len(lines[done[2]]) // 2]  # half a done record
        copy = tmp_path / "journal.jsonl"
        copy.write_text("".join(kept) + torn)
        master = CampaignMaster.resume(CampaignJournal(copy), workers=1)
        resumed = master.run(resume=True)
        assert resumed.stats.torn_tail
        assert resumed.stats.reused == 2  # the torn completion does not count
        assert resumed.report.metrics_json() == outcome.report.metrics_json()
        assert resumed.report.report_json() == outcome.report.report_json()

    def test_resume_at_workers_4_matches(self, journaled_run, tmp_path):
        outcome, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"event":"done"' in line]
        copy = tmp_path / "journal.jsonl"
        copy.write_text("".join(lines[: done[3] + 1]))
        master = CampaignMaster.resume(CampaignJournal(copy), workers=4)
        resumed = master.run(resume=True)
        assert resumed.report.metrics_json() == outcome.report.metrics_json()
        assert resumed.report.report_json() == outcome.report.report_json()

    def test_journal_views(self, journaled_run):
        outcome, path = journaled_run
        snapshot = journal_status(CampaignJournal(path))
        assert snapshot["complete"] is True
        assert snapshot["counts"]["done"] == 8
        rebuilt = report_from_journal(CampaignJournal(path))
        assert rebuilt.report_json() == outcome.report.report_json()

    def test_partial_journal_reports_missing_rows(self, journaled_run, tmp_path):
        _, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"event":"done"' in line]
        copy = tmp_path / "journal.jsonl"
        copy.write_text("".join(lines[: done[0] + 1]))
        report = report_from_journal(CampaignJournal(copy))
        counts = report.counts()
        assert counts["ok"] == 1 and counts["missing"] == 7


class TestRetries:
    def test_transient_crash_is_retried(self, monkeypatch):
        from repro.campaign import master as master_module
        from repro.campaign.units import execute_unit as real_execute

        crashed = []

        def flaky(unit):
            if "tau=12" in unit.key and not crashed:
                crashed.append(unit.key)
                raise RuntimeError("simulated worker crash")
            return real_execute(unit)

        monkeypatch.setattr(master_module, "execute_unit", flaky)
        outcome = CampaignMaster(
            "parameter=tau:8,12", scale="quick", workers=1
        ).run()
        assert crashed  # the crash happened...
        assert outcome.stats.retries == 1
        assert outcome.report.counts()["ok"] == 2  # ...and the retry healed it

    def test_exhausted_budget_reports_failed(self, monkeypatch):
        from repro.campaign import master as master_module
        from repro.campaign.units import execute_unit as real_execute

        def doomed(unit):
            if "tau=12" in unit.key:
                raise RuntimeError("permanent crash")
            return real_execute(unit)

        monkeypatch.setattr(master_module, "execute_unit", doomed)
        outcome = CampaignMaster(
            "parameter=tau:8,12", scale="quick", workers=1, max_attempts=2
        ).run()
        assert outcome.stats.exhausted == 1
        counts = outcome.report.counts()
        assert counts["ok"] == 1 and counts["failed"] == 1
        failed = [r for r in outcome.report.rows if r["status"] == "failed"]
        assert "attempts" in failed[0]["error"]


class TestCampaignCLI:
    def test_run_status_report(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        report_path = tmp_path / "report.json"
        code = campaign_cli.main(
            [
                "run", "--spec", "parameter=tau:8,11", "--scale", "quick",
                "--journal", str(journal), "--report-out", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ok=1 invalid=1" in out
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "repro.campaign/1"
        assert campaign_cli.main(["status", "--journal", str(journal)]) == 0
        assert "complete: True" in capsys.readouterr().out
        assert campaign_cli.main(["report", "--journal", str(journal), "--json"]) == 0
        rebuilt = json.loads(capsys.readouterr().out)
        assert rebuilt["rows"] == payload["rows"]

    def test_bad_spec_exits_2(self, capsys):
        assert campaign_cli.main(["run", "--spec", "parameter=zzz:1"]) == 2
        assert "sweepable" in capsys.readouterr().out

    def test_existing_journal_suggests_resume(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        args = ["run", "--spec", "parameter=tau:8", "--scale", "quick",
                "--journal", str(journal)]
        assert campaign_cli.main(args) == 0
        capsys.readouterr()
        assert campaign_cli.main(args) == 2
        assert "resume" in capsys.readouterr().out

    def test_resume_completed_campaign_is_a_no_op(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert campaign_cli.main(
            ["run", "--spec", "parameter=tau:8", "--scale", "quick",
             "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        assert campaign_cli.main(["resume", "--journal", str(journal)]) == 0
        assert "ok=1" in capsys.readouterr().out

    def test_compact_subcommand_preserves_the_report(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert campaign_cli.main(
            ["run", "--spec", "parameter=tau:8,12", "--scale", "quick",
             "--journal", str(journal), "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert campaign_cli.main(["report", "--journal", str(journal), "--json"]) == 0
        before_json = capsys.readouterr().out
        assert campaign_cli.main(["compact", "--journal", str(journal)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert campaign_cli.main(["report", "--journal", str(journal), "--json"]) == 0
        assert capsys.readouterr().out == before_json
        assert campaign_cli.main(["status", "--journal", str(journal)]) == 0
        assert "complete: True" in capsys.readouterr().out

    def test_status_shows_leases_and_quarantine(self, capsys, journaled_run, tmp_path):
        _, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"event":"done"' in line]
        copy = tmp_path / "j.jsonl"
        copy.write_text("".join(lines[: done[0] + 1]))
        queued = [
            json.loads(line) for line in lines if '"event":"queued"' in line
        ]
        done_key = json.loads(lines[done[0]])["unit"]
        others = [r for r in queued if r["unit"] != done_key]
        beating, silent, poison = others[0], others[1], others[2]
        journal = CampaignJournal(copy)
        now = time.time()
        for record in (beating, silent):
            journal.append(
                {"event": "leased", "unit": record["unit"],
                 "index": record["index"], "worker": "deadbeef.1", "fence": 1,
                 "granted": now, "expires": now + 600.0}
            )
        journal.append(
            {"event": "heartbeat", "unit": beating["unit"],
             "index": beating["index"], "fence": 1, "seq": 2,
             "worker": "deadbeef.1", "pid": 1234, "t": now}
        )
        journal.append(
            {"event": "quarantined", "unit": poison["unit"], "reclaims": 3,
             "deaths": 0,
             "error": "quarantined after 3 lease reclamations and 0 worker deaths"}
        )
        snapshot = journal_status(journal)
        leases = {lease["unit"]: lease for lease in snapshot["leases"]}
        assert set(leases) == {beating["unit"], silent["unit"]}
        alive = leases[beating["unit"]]
        assert alive["owner"] == "deadbeef.1" and alive["fence"] == 1
        assert alive["heartbeat_seq"] == 2 and alive["heartbeat_age_s"] is not None
        assert alive["lease_age_s"] >= 0.0 and alive["expires_in_s"] > 0.0
        # A lease that never managed a beat reports its silence honestly.
        assert leases[silent["unit"]]["heartbeat_age_s"] is None
        assert leases[silent["unit"]]["heartbeat_seq"] == -1
        assert snapshot["quarantined"][0]["unit"] == poison["unit"]
        assert snapshot["counts"]["quarantined"] == 1
        assert campaign_cli.main(["status", "--journal", str(copy)]) == 0
        out = capsys.readouterr().out
        assert "[ leased]" in out and "fence=1" in out and "(seq 2)" in out
        assert "heartbeat=never" in out
        assert "[ poison]" in out and "3 lease reclamations" in out


class TestFencing:
    """Late records from fenced-off leases are rejected on replay."""

    def _result(self, x):
        return UnitResult(index=0, key="a", ok=True, row={"x": x})

    def test_late_done_after_reclaim_is_rejected(self):
        state = _queue_for(["a"])
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "fence": 1,
                     "granted": 0.0, "expires": 100.0})
        state.apply({"event": "reclaimed", "unit": "a", "fence": 1,
                     "reason": "stuck", "t": 5.0})
        # The stalled worker resumes and reports its stale-fenced result.
        state.apply({"event": "done", "unit": "a", "fence": 1,
                     "result": self._result(1.0).as_dict()})
        assert state.units["a"].status is UnitStatus.QUEUED

    def test_first_valid_fence_wins(self):
        state = _queue_for(["a"])
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "fence": 1,
                     "granted": 0.0, "expires": 100.0})
        state.apply({"event": "reclaimed", "unit": "a", "fence": 1,
                     "reason": "stuck", "t": 5.0})
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "fence": 2,
                     "granted": 6.0, "expires": 106.0})
        state.apply({"event": "done", "unit": "a", "fence": 1,
                     "result": self._result(1.0).as_dict()})  # fenced off
        state.apply({"event": "done", "unit": "a", "fence": 2,
                     "result": self._result(2.0).as_dict()})  # the standing one
        assert state.results()["a"].row == {"x": 2.0}

    def test_late_failed_with_stale_fence_is_rejected(self):
        state = _queue_for(["a"])
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "fence": 1,
                     "granted": 0.0, "expires": 100.0})
        state.apply({"event": "reclaimed", "unit": "a", "fence": 1,
                     "reason": "stuck", "t": 5.0})
        state.apply({"event": "failed", "unit": "a", "fence": 1, "kind": "crash",
                     "error": "late", "attempt": 1})
        assert state.units["a"].status is UnitStatus.QUEUED
        assert state.units["a"].attempts == 0

    def test_newer_grant_invalidates_older_fence(self):
        state = _queue_for(["a"])
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "fence": 1,
                     "granted": 0.0, "expires": 100.0})
        state.apply({"event": "leased", "unit": "a", "worker": "m2", "fence": 2,
                     "granted": 1.0, "expires": 101.0})
        state.apply({"event": "done", "unit": "a", "fence": 1,
                     "result": self._result(1.0).as_dict()})
        assert state.units["a"].status is UnitStatus.LEASED

    def test_unfenced_legacy_records_stay_valid(self):
        state = _queue_for(["a"])
        state.apply({"event": "leased", "unit": "a", "worker": "m1", "fence": 3,
                     "granted": 0.0, "expires": 100.0})
        state.apply({"event": "done", "unit": "a",
                     "result": self._result(1.0).as_dict()})
        assert state.units["a"].status is UnitStatus.DONE

    def test_replay_is_invariant_to_fenced_noise(self):
        base = [
            {"event": "leased", "unit": "a", "worker": "m1", "fence": 1,
             "granted": 0.0, "expires": 100.0},
            {"event": "reclaimed", "unit": "a", "fence": 1, "reason": "stuck",
             "t": 5.0},
            {"event": "leased", "unit": "a", "worker": "m1", "fence": 2,
             "granted": 6.0, "expires": 106.0},
            {"event": "done", "unit": "a", "fence": 2,
             "result": self._result(2.0).as_dict()},
        ]
        noise = {"event": "done", "unit": "a", "fence": 1,
                 "result": self._result(9.0).as_dict()}
        clean, noisy = _queue_for(["a"]), _queue_for(["a"])
        clean.replay(base)
        noisy.replay(base[:3] + [noise] + base[3:])
        assert noisy.results()["a"] == clean.results()["a"]


class TestSupervisePolicyResolve:
    def test_derived_defaults(self):
        policy = SupervisePolicy.resolve(heartbeat_s=1.0, lease_timeout_s=600.0)
        assert policy.stuck_after_s == 4.0
        assert policy.first_beat_grace_s == 16.0
        assert policy.soft_deadline_s == 150.0
        assert policy.tick_s == 0.5

    def test_tick_clamped_to_floor(self):
        policy = SupervisePolicy.resolve(heartbeat_s=0.02, lease_timeout_s=600.0)
        assert policy.tick_s == 0.02

    def test_heartbeat_must_be_positive(self):
        with pytest.raises(ValueError, match="heartbeat_s"):
            SupervisePolicy.resolve(heartbeat_s=0.0)

    def test_stuck_must_exceed_heartbeat(self):
        with pytest.raises(ValueError, match="missed beat"):
            SupervisePolicy.resolve(heartbeat_s=1.0, stuck_after_s=1.0)

    def test_stuck_must_beat_the_wall_clock(self):
        with pytest.raises(ValueError, match="lease timeout"):
            SupervisePolicy.resolve(
                heartbeat_s=1.0, stuck_after_s=600.0, lease_timeout_s=600.0
            )

    def test_grace_must_cover_stuck(self):
        with pytest.raises(ValueError, match="first_beat_grace_s"):
            SupervisePolicy.resolve(
                heartbeat_s=1.0, stuck_after_s=4.0, first_beat_grace_s=2.0
            )

    def test_quarantine_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            SupervisePolicy.resolve(quarantine_after=0)


# A synthetic-clock policy: beats every 1s, stuck after 4s of staleness,
# 16s of grace before the first beat, slow past 150s.
_POLICY = SupervisePolicy(
    heartbeat_s=1.0, stuck_after_s=4.0, first_beat_grace_s=16.0,
    soft_deadline_s=150.0, max_extensions=3, quarantine_after=3, tick_s=0.25,
)


def _supervised(keys):
    """A queue of *keys* and a supervisor judging master "m"'s leases."""
    queue = _queue_for(keys)
    return queue, Supervisor(_POLICY, queue, "m")


def _lease(key, fence, worker="m"):
    return {"event": "leased", "unit": key, "worker": worker, "fence": fence,
            "granted": 0.0, "expires": 600.0}


def _beat(key, fence, seq, t):
    return {"event": "heartbeat", "unit": key, "fence": fence, "seq": seq, "t": t}


def _honor(queue, decisions, now):
    """Apply the records the master journals for *decisions*."""
    for decision in decisions:
        if isinstance(decision, Reclaim):
            queue.apply({"event": "reclaimed", "unit": decision.key,
                         "fence": decision.fence, "reason": decision.reason,
                         "t": now})
        else:
            queue.apply({"event": "extended", "unit": decision.key,
                         "fence": decision.fence, "expires": decision.expires_s,
                         "extension": decision.extension})


class TestSupervisor:
    def test_classify_lease_rule(self):
        # Beating lease: judged on heartbeat staleness.
        assert classify_lease(2.0, 0.0, 1.0, _POLICY) is LeaseHealth.LIVE
        assert classify_lease(6.0, 0.0, 1.0, _POLICY) is LeaseHealth.STUCK
        # Silent lease: judged on the (more generous) first-beat grace.
        assert (
            classify_lease(10.0, 0.0, 0.0, _POLICY, has_beats=False)
            is LeaseHealth.LIVE
        )
        assert (
            classify_lease(17.0, 0.0, 0.0, _POLICY, has_beats=False)
            is LeaseHealth.STUCK
        )
        # Old but still beating: slow, not stuck.
        assert classify_lease(151.0, 0.0, 150.0, _POLICY) is LeaseHealth.SLOW

    def test_stale_heartbeats_make_a_lease_stuck(self):
        queue, supervisor = _supervised(["a"])
        queue.apply(_lease("a", fence=1))
        queue.apply(_beat("a", fence=1, seq=0, t=1.0))
        assert lease_health(queue.units["a"], 2.0, _POLICY) is LeaseHealth.LIVE
        decisions = supervisor.decide(6.0)  # 5s since the last beat
        assert len(decisions) == 1
        assert decisions[0].reason == "stuck"
        assert decisions[0].fence == 1
        _honor(queue, decisions, now=6.0)
        # A reclaimed lease is no longer held, so it is no longer judged.
        assert supervisor.held() == []

    def test_silent_lease_reclaimed_as_unstarted(self):
        queue, supervisor = _supervised(["a"])
        queue.apply(_lease("a", fence=1))
        assert supervisor.decide(10.0) == []  # within first-beat grace
        decisions = supervisor.decide(17.0)
        assert [d.reason for d in decisions] == ["unstarted"]

    def test_slow_lease_extended_with_bounded_backoff(self):
        queue, supervisor = _supervised(["a"])
        queue.apply(_lease("a", fence=1))
        queue.apply(_beat("a", fence=1, seq=0, t=150.0))
        (first,) = supervisor.decide(151.0)
        assert first.extension == 1
        assert first.expires_s == 600.0 + 300.0  # soft_deadline * 2**1
        _honor(queue, [first], now=151.0)
        assert supervisor.decide(152.0) == []  # backoff: not due again yet
        queue.apply(_beat("a", fence=1, seq=1, t=450.0))
        (second,) = supervisor.decide(451.0)
        assert second.extension == 2
        assert second.expires_s == 900.0 + 600.0  # soft_deadline * 2**2
        _honor(queue, [second], now=451.0)
        queue.apply(_beat("a", fence=1, seq=2, t=1051.0))
        (third,) = supervisor.decide(1051.5)
        assert third.extension == 3
        _honor(queue, [third], now=1051.5)
        # The extension budget is spent; the hard timeout is now final.
        queue.apply(_beat("a", fence=1, seq=3, t=3451.0))
        assert supervisor.decide(3451.5) == []
        assert [entry.key for entry in supervisor.held()] == ["a"]

    def test_fenced_off_heartbeats_are_ignored(self):
        queue, _ = _supervised(["a"])
        queue.apply(_lease("a", fence=2))
        queue.apply(_beat("a", fence=1, seq=7, t=5.0))
        assert queue.units["a"].heartbeat_seq == -1
        assert queue.units["a"].last_heartbeat_s == 0.0

    def test_decisions_come_in_index_order(self):
        queue, supervisor = _supervised(["a", "b"])
        queue.apply(_lease("b", fence=1))
        queue.apply(_lease("a", fence=1))
        decisions = supervisor.decide(17.0)
        assert [d.key for d in decisions] == ["a", "b"]

    def test_only_this_masters_leases_are_judged(self):
        queue, supervisor = _supervised(["a", "b"])
        queue.apply(_lease("a", fence=1, worker="dead"))
        queue.apply(_lease("b", fence=1))
        assert [d.key for d in supervisor.decide(17.0)] == ["b"]
        assert supervisor.health_counts(17.0) == {"live": 0, "slow": 0, "stuck": 1}


class TestHeartbeatEmitter:
    def test_emits_sequenced_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CampaignJournal(path).append(
            {"event": "campaign", "format": "repro.campaign/1"}
        )
        emitter = HeartbeatEmitter(
            path, key="k", index=0, fence=1, worker="w", interval_s=0.02
        )
        with emitter:
            time.sleep(0.15)
        beats = [
            r for r in CampaignJournal(path).read().records
            if r["event"] == "heartbeat"
        ]
        assert len(beats) >= 2
        assert [r["seq"] for r in beats] == list(range(len(beats)))
        assert all(r["fence"] == 1 and r["pid"] == os.getpid() for r in beats)


class TestJournalTail:
    def test_poll_consumes_only_complete_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event":"a"}\n{"event":"b')
        tail = JournalTail(path)
        assert [r["event"] for r in tail.poll()] == ["a"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('x"}\n')
        assert [r["event"] for r in tail.poll()] == ["bx"]
        assert tail.poll() == []


_HEADER = '{"event":"campaign","format":"repro.campaign/1"}\n'
_QUEUED_K = '{"event":"queued","unit":"k","index":0}\n'
_BEAT = '{"event":"heartbeat","unit":"k","index":0,"fence":1,"seq":0,"t":1.0}\n'


class TestTornRecords:
    """The record-aware torn-line policy (crash signatures vs corruption)."""

    def test_torn_middle_heartbeat_skipped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"heartbeat","unit":"k","seq":\n'
            + '{"event":"queued","unit":"m","index":1}\n'
        )
        contents = CampaignJournal(path).read()
        assert not contents.torn_tail
        assert [r["event"] for r in contents.records] == [
            "campaign", "queued", "queued",
        ]
        assert any("torn heartbeat line skipped" in w for w in contents.warnings)

    def test_torn_heartbeat_with_embedded_record_salvaged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"heartbeat","unit":"k","seq{"event":"queued","unit":"m","index":1}\n'
        )
        contents = CampaignJournal(path).read()
        assert [r["event"] for r in contents.records] == [
            "campaign", "queued", "queued",
        ]
        assert any("salvaged" in w for w in contents.warnings)

    def test_torn_final_work_record_stays_the_crash_signature(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K + '{"event":"done","unit":"k","result":{"in'
        )
        contents = CampaignJournal(path).read()
        assert contents.torn_tail
        assert contents.warnings == ()
        assert [r["event"] for r in contents.records] == ["campaign", "queued"]

    def test_torn_master_record_followed_by_heartbeats_is_legal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"done","unit":"k","resu\n' + _BEAT + _BEAT
        )
        contents = CampaignJournal(path).read()
        assert contents.torn_tail  # the interrupted state transition was lost
        assert any("torn master append dropped" in w for w in contents.warnings)
        assert [r["event"] for r in contents.records] == [
            "campaign", "queued", "heartbeat", "heartbeat",
        ]

    def test_torn_master_record_with_embedded_heartbeat_salvaged(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"done","unit":"k","resu'
            + '{"event":"heartbeat","unit":"k","index":0,"fence":1,"seq":3,"t":2.0}\n'
            + _BEAT
        )
        contents = CampaignJournal(path).read()
        assert contents.torn_tail
        assert any("recovered the heartbeat" in w for w in contents.warnings)
        assert [r["event"] for r in contents.records] == [
            "campaign", "queued", "heartbeat", "heartbeat",
        ]

    def test_torn_master_record_before_resumed_master_is_legal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"done","unit":"k","resu\n' + _BEAT
            + '{"event":"master","incarnation":"2"}\n'
            + '{"event":"queued","unit":"m","index":1}\n'
        )
        contents = CampaignJournal(path).read()
        assert contents.torn_tail
        assert [r["event"] for r in contents.records] == [
            "campaign", "queued", "heartbeat", "master", "queued",
        ]

    def test_torn_master_followed_by_state_transition_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"done","unit":"k","resu\n'
            + '{"event":"queued","unit":"m","index":1}\n'
        )
        with pytest.raises(CampaignJournalError, match="crash signature"):
            CampaignJournal(path).read()

    def test_torn_master_with_embedded_state_record_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            _HEADER + _QUEUED_K
            + '{"event":"done","u{"event":"queued","unit":"m","index":1}\n'
            + _BEAT
        )
        with pytest.raises(CampaignJournalError, match="crash signature"):
            CampaignJournal(path).read()


class TestQuarantine:
    def test_only_fault_reasons_count_toward_quarantine(self):
        state = _queue_for(["a"])
        for reason in ("drain", "unstarted", "takeover"):
            state.apply({"event": "leased", "unit": "a", "worker": "m", "fence": 1,
                         "granted": 0.0, "expires": 100.0})
            state.apply({"event": "reclaimed", "unit": "a", "fence": 1,
                         "reason": reason, "t": 1.0})
        assert state.units["a"].reclaims == 0
        for fence, reason in ((2, "stuck"), (3, "expired")):
            state.apply({"event": "leased", "unit": "a", "worker": "m",
                         "fence": fence, "granted": 0.0, "expires": 100.0})
            state.apply({"event": "reclaimed", "unit": "a", "fence": fence,
                         "reason": reason, "t": 1.0})
        assert state.units["a"].reclaims == 2

    def test_quarantine_is_terminal(self):
        state = _queue_for(["a"])
        state.apply({"event": "quarantined", "unit": "a", "reclaims": 3,
                     "deaths": 0, "error": "poison"})
        entry = state.units["a"]
        assert entry.status is UnitStatus.QUARANTINED and entry.terminal
        assert state.counts()["quarantined"] == 1
        # Neither a late lease nor a late completion moves it.
        result = UnitResult(index=0, key="a", ok=True, row={"x": 1.0})
        state.apply({"event": "leased", "unit": "a", "worker": "m", "fence": 9,
                     "granted": 0.0, "expires": 100.0})
        state.apply({"event": "done", "unit": "a", "result": result.as_dict()})
        assert state.units["a"].status is UnitStatus.QUARANTINED
        assert state.runnable(0.0, "m", 3) == []

    def test_standing_result_beats_a_quarantine_marker(self):
        state = _queue_for(["a"])
        result = UnitResult(index=0, key="a", ok=True, row={"x": 1.0})
        state.apply({"event": "done", "unit": "a", "result": result.as_dict()})
        state.apply({"event": "quarantined", "unit": "a", "reclaims": 3,
                     "deaths": 0, "error": "poison"})
        assert state.units["a"].status is UnitStatus.DONE

    def test_died_failures_use_their_own_budget(self):
        state = _queue_for(["a"])
        state.apply({"event": "failed", "unit": "a", "kind": "died",
                     "error": "worker process died mid-unit", "death": 1})
        entry = state.units["a"]
        assert entry.deaths == 1 and entry.attempts == 0
        # Worker deaths never consume the crash-attempt budget.
        assert [e.key for e in state.runnable(0.0, "m", 1)] == ["a"]

    @pytest.mark.skipif(
        resolve_start_method() != "fork",
        reason="monkeypatched workers need fork inheritance",
    )
    def test_worker_death_quarantines_poison_unit(self, monkeypatch, tmp_path):
        from repro.campaign import master as master_module
        from repro.campaign.units import execute_unit as real_execute

        def poison(unit):
            if "tau=16" in unit.key and multiprocessing.parent_process() is not None:
                time.sleep(1.0)  # let the healthy units clear the pool first
                os._exit(21)
            return real_execute(unit)

        monkeypatch.setattr(master_module, "execute_unit", poison)
        path = tmp_path / "poison.jsonl"
        outcome = CampaignMaster(
            "parameter=tau:8,12,16",
            journal=CampaignJournal(path),
            scale="quick",
            workers=2,
            supervise=SupervisePolicy.resolve(
                quarantine_after=1, lease_timeout_s=600.0
            ),
        ).run()
        assert outcome.stats.deaths >= 1
        assert outcome.stats.quarantined == 1
        counts = outcome.report.counts()
        assert counts["ok"] == 2 and counts["quarantined"] == 1
        (row,) = [r for r in outcome.report.rows if r["status"] == "quarantined"]
        assert "tau=16" in row["key"] and "worker deaths" in row["error"]
        metrics = json.loads(outcome.report.metrics_json())
        assert metrics["campaign.units_quarantined"]["value"] == 1
        # Replaying the journal reproduces the identical report bytes.
        rebuilt = report_from_journal(CampaignJournal(path))
        assert rebuilt.report_json() == outcome.report.report_json()


class TestCompact:
    def test_compacted_complete_journal_resumes_identically(
        self, journaled_run, tmp_path
    ):
        outcome, path = journaled_run
        copy = tmp_path / "j.jsonl"
        shutil.copy(path, copy)
        before, after = compact_journal(CampaignJournal(copy))
        assert before > after
        assert after == 17  # header + 8 queued + 8 done
        master = CampaignMaster.resume(CampaignJournal(copy), workers=1)
        resumed = master.run(resume=True)
        assert resumed.stats.reused == 8 and resumed.stats.executed == 0
        assert resumed.report.report_json() == outcome.report.report_json()

    def test_compacted_partial_journal_resumes_identically(
        self, journaled_run, tmp_path
    ):
        outcome, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        done = [i for i, line in enumerate(lines) if '"event":"done"' in line]
        copy = tmp_path / "j.jsonl"
        copy.write_text("".join(lines[: done[2] + 1]))
        compact_journal(CampaignJournal(copy))
        master = CampaignMaster.resume(CampaignJournal(copy), workers=1)
        resumed = master.run(resume=True)
        assert resumed.stats.reused == 3 and resumed.stats.executed == 5
        assert resumed.report.report_json() == outcome.report.report_json()

    def test_compact_to_out_leaves_the_original(self, journaled_run, tmp_path):
        _, path = journaled_run
        copy = tmp_path / "j.jsonl"
        out = tmp_path / "compact.jsonl"
        shutil.copy(path, copy)
        original = copy.read_text()
        before, after = compact_journal(CampaignJournal(copy), out=out)
        assert copy.read_text() == original
        assert len(CampaignJournal(out).read().records) == after < before

    def test_compact_preserves_failure_accounting(self, journaled_run, tmp_path):
        _, path = journaled_run
        lines = [
            line for line in path.read_text().splitlines(keepends=True)
            if '"event":"campaign"' in line or '"event":"queued"' in line
        ]
        copy = tmp_path / "j.jsonl"
        copy.write_text("".join(lines))
        key = json.loads(lines[1])["unit"]
        journal = CampaignJournal(copy)
        journal.append({"event": "failed", "unit": key, "kind": "crash",
                        "error": "boom", "attempt": 2})
        journal.append({"event": "failed", "unit": key, "kind": "died",
                        "error": "worker process died mid-unit", "death": 1})
        compact_journal(journal)
        state = QueueState.from_journal(journal.read().records)
        assert state.units[key].attempts == 2
        assert state.units[key].deaths == 1
        assert state.units[key].status is UnitStatus.FAILED


class TestLiveQueueIsTheReplay:
    """Every transition is a record the live master applies to its queue."""

    def test_master_queue_matches_its_journal_replay(
        self, journaled_run, tmp_path, monkeypatch
    ):
        from repro.campaign import master as master_module

        # Cut the journal off mid-unit: the resumed master must take the
        # dead incarnation's lease over (a revoked fence), and one unit's
        # first attempt crashes (a retried failure).
        _, path = journaled_run
        lines = path.read_text().splitlines(keepends=True)
        leased = [i for i, line in enumerate(lines) if '"event":"leased"' in line]
        copy = tmp_path / "j.jsonl"
        copy.write_text("".join(lines[: leased[2] + 1]))
        real_execute = master_module.execute_unit
        crashed = []

        def flaky(unit):
            if unit.index == 5 and not crashed:
                crashed.append(unit.key)
                raise RuntimeError("transient")
            return real_execute(unit)

        monkeypatch.setattr(master_module, "execute_unit", flaky)
        queues = []
        real_record = CampaignMaster._record

        def spy(self, queue, record):
            queues.append(queue)
            real_record(self, queue, record)

        monkeypatch.setattr(CampaignMaster, "_record", spy)
        CampaignMaster.resume(CampaignJournal(copy), workers=1).run(resume=True)
        live = queues[-1]
        assert all(queue is live for queue in queues)
        replayed = QueueState.from_journal(CampaignJournal(copy).read().records)

        def fields(entry):
            return (entry.status, entry.fence, entry.revoked, entry.attempts,
                    entry.deaths, entry.reclaims, entry.result)

        assert {k: fields(e) for k, e in live.units.items()} == {
            k: fields(e) for k, e in replayed.units.items()
        }
        assert live.units[crashed[0]].attempts == 1
        assert any(entry.revoked for entry in live.units.values())
        assert live.complete


class TestChaosGrammar:
    def test_parse_round_trip(self):
        text = "kill:unit=3;stall:unit=5,dur=2;tear:record=done"
        schedule = parse_chaos(text)
        assert schedule.spec() == text
        assert [e.kind for e in schedule.external()] == ["kill", "stall"]
        assert [e.kind for e in schedule.internal()] == ["tear"]
        assert schedule.env() == {CHAOS_ENV: "tear:record=done"}

    def test_external_only_schedule_needs_no_env(self):
        assert parse_chaos("kill:unit=1").env() == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosScheduleError, match="unknown chaos event kind"):
            parse_chaos("explode:unit=1")

    def test_required_params_enforced(self):
        with pytest.raises(ChaosScheduleError, match="unit=N"):
            parse_chaos("kill")
        with pytest.raises(ChaosScheduleError, match="dur=S"):
            parse_chaos("delay_hb:unit=1")
        with pytest.raises(ChaosScheduleError, match="record=EVENT"):
            parse_chaos("tear")
        with pytest.raises(ChaosScheduleError, match="key=value"):
            parse_chaos("kill:unit")

    def test_repeated_unknown_and_unreadable_keys_rejected(self):
        for text, message in (
            ("stall:unit=1,dur=2,dur=3", "repeats parameter 'dur'"),
            ("kill:unit=1,unit=2", "repeats parameter 'unit'"),
            ("kill:unit=1,untypo=3", "has no parameter 'untypo'"),
            ("stall:unit=1,dur=abc", "non-numeric value 'abc'"),
        ):
            with pytest.raises(ChaosScheduleError, match=message):
                parse_chaos(text)

    def test_heartbeat_filter_drop_budget(self):
        chaos = heartbeat_filter_from_env(
            {CHAOS_ENV: "drop_hb:unit=2,from=1,count=2"}
        )
        assert chaos(2, 0) == (True, 0.0)  # below `from`
        assert chaos(2, 1) == (False, 0.0)
        assert chaos(2, 2) == (False, 0.0)
        assert chaos(2, 3) == (True, 0.0)  # count budget consumed
        assert chaos(0, 5) == (True, 0.0)  # another unit is untouched

    def test_heartbeat_filter_delay(self):
        chaos = heartbeat_filter_from_env({CHAOS_ENV: "delay_hb:unit=0,dur=0.5"})
        assert chaos(0, 0) == (True, 0.5)
        assert chaos(1, 0) == (True, 0.0)

    def test_no_internal_events_mean_no_hooks(self, tmp_path):
        assert heartbeat_filter_from_env({}) is None
        assert heartbeat_filter_from_env({CHAOS_ENV: "kill:unit=1"}) is None
        assert tamper_from_env(tmp_path / "j", "master", {}) is None

    def test_tamper_routes_by_writer_role(self, tmp_path):
        env = {CHAOS_ENV: "tear:record=heartbeat"}
        assert tamper_from_env(tmp_path / "j", "worker", env) is not None
        assert tamper_from_env(tmp_path / "j", "master", env) is None
        env = {CHAOS_ENV: "tear:record=done"}
        assert tamper_from_env(tmp_path / "j", "worker", env) is None
        assert tamper_from_env(tmp_path / "j", "master", env) is not None


class TestChaosHarness:
    def test_campaign_is_reaped_when_the_drive_loop_raises(self, monkeypatch, tmp_path):
        children = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                children.append(self)

        def fail(self):
            raise RuntimeError("injector failed")

        monkeypatch.setattr(
            "repro.campaign.chaos.subprocess",
            types.SimpleNamespace(Popen=Recorded, DEVNULL=subprocess.DEVNULL),
        )
        monkeypatch.setattr("repro.campaign.chaos._SignalInjector.poll", fail)
        with pytest.raises(RuntimeError, match="injector failed"):
            run_chaos_campaign("parameter=tau:8", "kill:unit=0", tmp_path, workers=1)
        (child,) = children
        assert child.returncode is not None  # killed and waited for


class TestDrain:
    def test_sigterm_drains_to_a_clean_marker(self, journaled_run, tmp_path):
        outcome, _ = journaled_run
        path = tmp_path / "drain.jsonl"
        # Keep a no-op handler installed around the run so a late-firing
        # timer cannot terminate the test process.
        fired = []
        previous = signal.signal(signal.SIGTERM, lambda s, f: fired.append(s))
        timer = threading.Timer(
            0.15, os.kill, (os.getpid(), signal.SIGTERM)
        )
        try:
            timer.start()
            master = CampaignMaster(
                QSPEC, journal=CampaignJournal(path), scale="quick", workers=1
            )
            drained = master.run()
        finally:
            timer.cancel()
            timer.join()
            signal.signal(signal.SIGTERM, previous)
        assert drained.stats.drained is True
        snapshot = journal_status(CampaignJournal(path))
        assert snapshot["drained"] is True
        assert snapshot["counts"]["done"] < 8
        assert snapshot["leases"] == []  # nothing left in flight
        records = CampaignJournal(path).read().records
        assert records[-1]["event"] == "drained"
        assert records[-1]["outstanding"] == 8 - snapshot["counts"]["done"]
        # The drained campaign resumes to the byte-identical report.
        resumed = CampaignMaster.resume(CampaignJournal(path), workers=1).run(
            resume=True
        )
        assert resumed.report.report_json() == outcome.report.report_json()
