"""Broadcast serving: cohort grammar, render-once sessions, fleet fan-out."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentScale
from repro.camera.geometry import PerspectiveView
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline
from repro.serve import (
    BroadcastSession,
    CohortSpecError,
    compile_receivers,
    deterministic_payload,
    parse_cohorts,
    run_fleet,
)
from repro.serve.cohort import CohortSpec

QUICK = ExperimentScale.quick()

#: One healthy cohort plus one faulted, distant, late-joining cohort.
FLEET_SPEC = (
    "near:n=3,join_spread=0.5,dwell=2.0"
    "|far:n=2,distance=1.3,join=0.4,join_spread=0.4,dwell=2.5,"
    "faults=drop:p=0.2/blackout:at=0.3+dur=0.4"
)


@pytest.fixture(scope="module")
def quick_session():
    """One shared broadcast session at the quick experiment scale."""
    config = QUICK.config()
    payload = deterministic_payload(64, seed=1)
    with BroadcastSession(config, QUICK.video("gray"), payload) as session:
        yield session


# ----------------------------------------------------------------------
# Cohort grammar
# ----------------------------------------------------------------------
class TestCohortGrammar:
    def test_parses_names_and_parameters(self):
        cohorts = parse_cohorts(
            "lobby:n=24,join_spread=1.5|far:n=8,distance=1.6,heal=1"
        )
        assert [c.name for c in cohorts] == ["lobby", "far"]
        assert cohorts[0].n == 24
        assert cohorts[0].join_spread_s == 1.5
        assert cohorts[1].distance == 1.6
        assert cohorts[1].heal is True

    def test_bare_name_uses_defaults(self):
        (cohort,) = parse_cohorts("solo")
        assert cohort.n == 1
        assert cohort.distance == 1.0
        assert cohort.faults is None
        assert cohort.heal is None

    def test_embedded_fault_grammar_translates(self):
        (cohort,) = parse_cohorts(
            "noisy:faults=drop:p=0.15+burst=2/blackout:at=0.5+dur=0.4", seed=7
        )
        assert cohort.faults is not None
        assert cohort.faults.seed == 7
        assert cohort.faults.spec() == "drop:p=0.15,burst=2;blackout:at=0.5,dur=0.4"

    def test_unknown_key_rejected(self):
        with pytest.raises(CohortSpecError, match="no parameter 'speed'"):
            parse_cohorts("a:speed=3")

    def test_malformed_pair_rejected(self):
        with pytest.raises(CohortSpecError, match="expected key=value"):
            parse_cohorts("a:n")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(CohortSpecError, match="repeats parameter"):
            parse_cohorts("a:n=2,n=3")

    def test_duplicate_cohort_name_rejected(self):
        with pytest.raises(CohortSpecError, match="duplicate cohort"):
            parse_cohorts("a:n=1|a:n=2")

    def test_empty_spec_rejected(self):
        with pytest.raises(CohortSpecError, match="empty"):
            parse_cohorts("||")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(CohortSpecError, match="non-numeric"):
            parse_cohorts("a:n=lots")

    def test_malformed_name_rejected(self):
        # A bare parameter list is a typo, not a cohort called "n=4".
        with pytest.raises(CohortSpecError, match="malformed cohort name"):
            parse_cohorts("n=4")
        with pytest.raises(CohortSpecError, match="malformed cohort name"):
            parse_cohorts("near far:n=2")

    def test_validation_catches_bad_ranges(self):
        with pytest.raises(CohortSpecError, match="n must be >= 1"):
            CohortSpec(name="a", n=0)
        with pytest.raises(CohortSpecError, match="distance must be > 0"):
            CohortSpec(name="a", distance=0.0)
        with pytest.raises(CohortSpecError, match="join_spread"):
            CohortSpec(name="a", join_spread_s=-1.0)


# ----------------------------------------------------------------------
# Receiver compilation
# ----------------------------------------------------------------------
class TestCompileReceivers:
    def test_global_sequential_ids_across_cohorts(self):
        specs = compile_receivers(parse_cohorts("a:n=3|b:n=2"))
        assert [s.receiver_id for s in specs] == [0, 1, 2, 3, 4]
        assert [s.cohort for s in specs] == ["a", "a", "a", "b", "b"]

    def test_same_seed_bit_identical(self):
        spec = "a:n=4,join_spread=2.0,offset_spread=0.01,drift_spread_ppm=50"
        one = compile_receivers(parse_cohorts(spec, seed=3), seed=3)
        two = compile_receivers(parse_cohorts(spec, seed=3), seed=3)
        assert one == two

    def test_different_seed_different_draws(self):
        spec = "a:n=4,join_spread=2.0"
        one = compile_receivers(parse_cohorts(spec, seed=1), seed=1)
        two = compile_receivers(parse_cohorts(spec, seed=2), seed=2)
        assert [s.join_s for s in one] != [s.join_s for s in two]

    def test_draws_land_inside_their_spreads(self):
        specs = compile_receivers(
            parse_cohorts("a:n=16,join=1.0,join_spread=2.0,drift_ppm=10,"
                          "drift_spread_ppm=5")
        )
        for s in specs:
            assert 1.0 <= s.join_s <= 3.0
            assert 5e-6 <= s.extra_drift <= 15e-6

    def test_fault_plans_reseeded_per_receiver(self):
        specs = compile_receivers(parse_cohorts("a:n=3,faults=drop:p=0.3", seed=5))
        seeds = [s.faults.seed for s in specs]
        assert len(set(seeds)) == 3
        assert all(s.faults.spec() == "drop:p=0.3" for s in specs)

    def test_heal_defaults_to_faults_presence(self):
        faulted, clean = compile_receivers(
            parse_cohorts("bad:n=1,faults=drop:p=0.1|good:n=1")
        )
        assert faulted.heal is True
        assert clean.heal is False
        (forced,) = compile_receivers(
            parse_cohorts("bad:n=1,faults=drop:p=0.1,heal=0")
        )
        assert forced.heal is False

    def test_camera_derivation_inherits_and_overrides(self):
        base = QUICK.camera()
        (spec,) = compile_receivers(
            parse_cohorts("far:distance=2.0,fps=24,offset=0.1,join=1.0")
        )
        camera = spec.camera(base)
        assert camera.fps == 24.0
        assert camera.exposure_s == base.exposure_s
        assert camera.clock_offset_s == pytest.approx(1.1)
        assert camera.screen_fill == pytest.approx(base.screen_fill / 2.0)


# ----------------------------------------------------------------------
# The broadcast session
# ----------------------------------------------------------------------
class TestBroadcastSession:
    def test_cycle_aligns_to_video_loop(self, quick_session):
        config = quick_session.config
        assert quick_session.period_frames == quick_session.cycle_packets * config.tau
        assert quick_session.period_frames % quick_session.loop_frames == 0
        assert quick_session.cycle_packets >= quick_session.k

    def test_prepare_renders_exactly_one_cycle(self, quick_session):
        memo = quick_session.prepare(quick_session.cycle_s)
        assert quick_session.render_cache_misses == quick_session.period_frames
        # A second prepare at any already-covered horizon re-renders nothing.
        again = quick_session.prepare(quick_session.cycle_s)
        assert again is memo
        assert quick_session.render_cache_misses == quick_session.period_frames

    def test_memoized_fields_match_direct_rendering(self, quick_session):
        memo = quick_session.prepare(quick_session.cycle_s)
        period = quick_session.period_frames
        direct = DisplayTimeline(quick_session.panel, memo.inner.source)
        for index in range(period, period + 4):
            assert np.array_equal(
                memo.frame_average_luminance(index),
                direct.frame_average_luminance(index),
            )

    def test_steady_state_cycles_repeat_bit_exactly(self, quick_session):
        # The render-cache key (index mod period) assumes the LC state is
        # periodic; verify on the actual stream with two fresh timelines.
        memo = quick_session.prepare(3 * quick_session.cycle_s)
        period = quick_session.period_frames
        one = DisplayTimeline(quick_session.panel, memo.inner.source)
        two = DisplayTimeline(quick_session.panel, memo.inner.source)
        for offset in range(3):
            assert np.array_equal(
                one.frame_average_luminance(period + offset),
                two.frame_average_luminance(2 * period + offset),
            )

    def test_cache_key_folds_indices_mod_period(self, quick_session):
        memo = quick_session.prepare(quick_session.cycle_s)
        period = quick_session.period_frames
        early = memo.frame_average_luminance(3)
        late = memo.frame_average_luminance(3 + period)
        assert np.shares_memory(early, late)  # the very same cached field

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError, match="payload"):
            BroadcastSession(QUICK.config(), QUICK.video("gray"), b"")

    def test_rejects_mismatched_panel(self, small_panel):
        with pytest.raises(ValueError, match="does not match"):
            BroadcastSession(
                QUICK.config(), QUICK.video("gray"), b"x", panel=small_panel
            )

    def test_rejects_panel_at_another_refresh_rate(self):
        # The sender's check: a 60 Hz panel cannot play a 120 Hz config.
        video = QUICK.video("gray")
        panel = DisplayPanel(width=video.width, height=video.height, refresh_hz=60.0)
        with pytest.raises(ValueError, match="refresh"):
            BroadcastSession(QUICK.config(), video, b"x", panel=panel)

    def test_prepare_validates_horizon_and_closed_state(self):
        session = BroadcastSession(
            QUICK.config(), QUICK.video("gray"), deterministic_payload(16)
        )
        with pytest.raises(ValueError, match="horizon_s"):
            session.prepare(0.0)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.prepare(1.0)

    def test_deterministic_payload_is_seed_stamped(self):
        assert deterministic_payload(32, seed=1) == deterministic_payload(32, seed=1)
        assert deterministic_payload(32, seed=1) != deterministic_payload(32, seed=2)


# ----------------------------------------------------------------------
# Fleet fan-out
# ----------------------------------------------------------------------
class TestFleet:
    @pytest.fixture(scope="class")
    def fleet(self, quick_session):
        cohorts = parse_cohorts(FLEET_SPEC, seed=1)
        return run_fleet(
            quick_session, cohorts, base_camera=QUICK.camera(), seed=1, workers=None
        )

    def test_every_receiver_reported_in_id_order(self, fleet):
        assert [r.receiver_id for r in fleet.results] == list(range(5))
        assert fleet.report.receivers == 5

    def test_healthy_cohort_delivers(self, fleet):
        near = next(c for c in fleet.report.cohorts if c.name == "near")
        assert near.delivered == near.receivers
        assert near.mean_time_to_deliver_s is not None
        assert near.mean_time_to_deliver_s > 0.0
        assert near.mean_goodput_kbps is not None

    def test_join_analytics_exposed(self, fleet):
        for result in fleet.results:
            if result.delivered:
                assert result.join_offset is not None
                assert result.symbols_consumed >= fleet.report.k
                assert result.time_to_deliver_s > 0.0

    def test_faulted_cohort_heals(self, fleet):
        far = next(c for c in fleet.report.cohorts if c.name == "far")
        assert far.receivers == 2
        # Healing is on by default for a faulted cohort; the report keys
        # exist either way (the CI smoke job asserts the same shape).
        report_dict = far.as_dict()
        for key in ("delivery_rate", "mean_time_to_deliver_s", "mean_goodput_kbps"):
            assert key in report_dict

    def test_render_cache_reused_across_receivers(self, fleet, quick_session):
        assert fleet.report.renders == quick_session.period_frames
        assert fleet.report.render_reads > fleet.report.renders
        assert fleet.report.reuse_ratio > 1.0

    def test_cohort_metrics_flow_through_obs(self, fleet):
        metrics = fleet.telemetry.metrics
        assert metrics["serve.cohort.near.receivers"]["value"] == 3
        assert metrics["serve.cohort.far.receivers"]["value"] == 2
        assert "serve.cohort.near.time_to_deliver_s" in metrics

    def test_receivers_without_a_capture_are_counted(self, quick_session):
        # A dwell shorter than one camera frame takes no capture; the
        # receiver still reaches its cohort's metrics.
        fleet = run_fleet(
            quick_session,
            parse_cohorts("brief:n=2,dwell=0.02|full:n=1,dwell=1.0", seed=1),
            base_camera=QUICK.camera(),
            seed=1,
        )
        assert {c.name: c.receivers for c in fleet.report.cohorts} == {"brief": 2, "full": 1}
        metrics = fleet.telemetry.metrics
        assert metrics["serve.cohort.brief.receivers"]["value"] == 2
        assert metrics["serve.cohort.brief.captures"]["value"] == 0
        assert metrics["serve.cohort.full.receivers"]["value"] == 1

    def test_workers_bit_identical_including_faulted_cohort(self, quick_session, fleet):
        parallel = run_fleet(
            quick_session,
            parse_cohorts(FLEET_SPEC, seed=1),
            base_camera=QUICK.camera(),
            seed=1,
            workers=2,
        )
        assert parallel.report.work_json() == fleet.report.work_json()
        assert parallel.telemetry.metrics_json() == fleet.telemetry.metrics_json()

    def test_forked_workers_render_nothing(self, quick_session, fleet):
        # The class fleet already prepared this horizon; the workers read
        # the parent's fields through fork inheritance.
        renders_before = quick_session.render_cache_misses
        parallel = run_fleet(
            quick_session,
            parse_cohorts(FLEET_SPEC, seed=1),
            base_camera=QUICK.camera(),
            seed=1,
            workers=2,
        )
        metrics = parallel.telemetry.metrics
        assert metrics["serve.render_cache.misses"]["value"] == 0
        assert metrics["serve.render_cache.hits"]["value"] == parallel.report.render_reads
        assert quick_session.render_cache_misses == renders_before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_render_and_observe_span_per_capture(self, quick_session, workers):
        # Fleet receivers run the link's receive chain, spans included.
        fleet = run_fleet(
            quick_session,
            parse_cohorts(FLEET_SPEC, seed=1),
            base_camera=QUICK.camera(),
            seed=1,
            workers=workers,
        )
        metrics = fleet.telemetry.metrics
        captures = sum(
            metric["value"]
            for name, metric in metrics.items()
            if name.startswith("serve.cohort.") and name.endswith(".captures")
        )
        spans = fleet.telemetry.span_counts()
        assert captures == sum(r.n_captures for r in fleet.results) > 0
        assert spans["render"] == spans["observe"] == captures
        assert spans["decide"] == fleet.report.receivers

    def test_drop_faulted_healed_receivers_keep_their_results(self, quick_session):
        # Pinned before fleet receivers shared the link's receive chain:
        # the drops land (25 and 23 data frames) and healing decodes.
        cohorts = parse_cohorts(
            "lossy:n=2,join_spread=0.6,dwell=2.5,faults=drop:p=0.3+burst=2", seed=1
        )
        fleet = run_fleet(quick_session, cohorts, base_camera=QUICK.camera(), seed=1)
        common = {
            "cohort": "lossy",
            "delivered": True,
            "n_captures": 75,
            "symbols_consumed": 3,
            "packets_rejected": 0,
            "resyncs": 0,
        }
        assert [r.as_dict() for r in fleet.results] == [
            {
                **common,
                "receiver_id": 0,
                "join_s": 0.058480222251164955,
                "n_data_frames": 25,
                "join_offset": 1,
                "time_to_deliver_s": 0.3415197777488351,
                "goodput_kbps": 1.4991811114861457,
            },
            {
                **common,
                "receiver_id": 1,
                "join_s": 0.3965128747808392,
                "n_data_frames": 23,
                "join_offset": 4,
                "time_to_deliver_s": 0.30348712521916077,
                "goodput_kbps": 1.6870567396566276,
            },
        ]

    def test_mid_cycle_joiner_bootstraps(self, quick_session):
        cohorts = parse_cohorts("late:n=1,join=1.1,dwell=2.0", seed=2)
        fleet = run_fleet(
            quick_session, cohorts, base_camera=QUICK.camera(), seed=2, workers=None
        )
        (result,) = fleet.results
        assert result.delivered
        assert result.join_offset is not None
        assert result.join_offset > 0  # tuned in mid-carousel-cycle

    def test_tilted_camera_receivers_decode_through_its_view(self, quick_session):
        # Fleet receivers build their decoder as the link receiver does,
        # so the camera's perspective view reaches the Block sampling.
        camera = QUICK.camera()
        view = PerspectiveView.tilted(camera.height, camera.width, yaw_deg=20)
        fleet = run_fleet(
            quick_session,
            parse_cohorts("tilted:n=2,dwell=2.5", seed=1),
            base_camera=replace(camera, view=view),
            seed=1,
        )
        assert fleet.report.delivered == fleet.report.receivers == 2
