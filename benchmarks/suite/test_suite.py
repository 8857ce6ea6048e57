"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import contextlib
import json
import re
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads
from repro.analysis.experiments import ExperimentScale
from repro.obs.trace import SpanRecord

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def span(span_id: int, parent: int | None, start: float, end: float, name: str) -> SpanRecord:
    return SpanRecord(
        name=name,
        category="work",
        track="t",
        span_id=span_id,
        parent_id=parent,
        start_s=start,
        dur_s=end - start,
        attrs={},
    )


# A rep [0, 10] whose children overlap ([1, 4] and [3, 6]) and overhang ([9, 12]).
TREE = [
    span(1, None, 0.0, 10.0, "rep"),
    span(2, 1, 1.0, 4.0, "encode"),
    span(3, 2, 2.0, 3.0, "display.gamma"),
    span(4, 1, 3.0, 6.0, "sensor"),
    span(5, 1, 9.0, 12.0, "sensor"),
]


def test_self_time_subtracts_the_union_of_children() -> None:
    selfs = layers.self_times(TREE)
    assert selfs == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 3.0})


def test_layer_metrics_split_wall_time_into_layers_and_other() -> None:
    metrics = layers.layer_metrics(
        TREE, n_reps=1, display_frames=1, memo_hits=3, memo_misses=1, overhead=0.02
    )
    assert metrics["encode.self_s"] == pytest.approx(2.0)
    assert metrics["sensor.calls"] == 2
    assert metrics["sensor.p50_us"] == pytest.approx(3.0e6)
    assert metrics["display.gamma.share"] == pytest.approx(0.1)
    assert metrics["other.self_s"] == pytest.approx(10.0 - 2.0 - 1.0 - 6.0)
    assert metrics["trace.attributed_share"] + metrics["other.share"] == pytest.approx(1.0)
    assert metrics["display.memo.hit_ratio"] == pytest.approx(0.75)
    assert metrics["faults.calls"] == 0 and metrics["faults.p50_us"] == 0


def rep(digests: dict[str, str], ok: bool = True, digest: str = "d") -> dict:
    return {
        "digest": digest,
        "quality": {"q": 1.0},
        "ops": [[op_id, value, ok] for op_id, value in digests.items()],
    }


EXPECTED = {"digest": "d", "quality": {"q": 1.0}, "ops": {"a": "1", "b": "2"}}


def test_a_digest_mismatch_is_a_failed_op() -> None:
    reps = [rep({"a": "1", "b": "2"}), rep({"a": "1", "b": "X"})]
    attempted, failed, problems = run.check_reps(reps, EXPECTED)
    assert (attempted, failed) == (4, 1)
    assert problems == ["rep 1: b digest differs"]


def test_invariant_failures_raises_and_missing_ops_are_failed_ops() -> None:
    reps = [
        rep({"a": "1", "b": "2"}, ok=False),
        {"error": "ValueError()"},
        rep({"a": "1"}),
        rep({"a": "1", "b": "2"}, digest="other"),
    ]
    attempted, failed, _ = run.check_reps(reps, EXPECTED)
    assert (attempted, failed) == (8, 2 + 2 + 1 + 2)


def test_without_a_reference_the_first_repetition_is_expected() -> None:
    reps = [rep({"a": "1"}), rep({"a": "1"})]
    assert run.check_reps(reps, run.expected_outputs(reps)) == (2, 0, [])


def test_benchmark_json_names_what_the_command_emits() -> None:
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    fake = {"peak_rss_mb": 1.0, "reps": [{"frames": 2, "wall_s": 1.0, "host_s": 0.1}]}
    assert set(run.end_to_end(fake, [0.5])) == {m["name"] for m in BENCHMARK["end_to_end"]}
    emitted = layers.layer_metrics(TREE, 1, 1, 0, 0, 0.0)
    assert list(emitted) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(spec) for spec in layers.per_layer_metric_specs()
    ]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == list(workloads.WHY.items())
    assert tuple(workloads.WHY) == run.WORKLOADS
    assert BENCHMARK["paths"] == ["benchmarks/suite"]


def test_compare_verdicts() -> None:
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
    assert compare.verdict(base, [v * 1.2 for v in base], True, 0.1) == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], True, 0.1) == "worse"
    assert compare.verdict(base, base, True, 0.1) == "same"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, noisy, True, 0.1) == "unresolved"


def compare_record(seed: int, rate: float, timed: float) -> dict:
    metrics = {m["name"]: {"value": 1.0} for m in BENCHMARK["end_to_end"]}
    metrics["frames_per_s"] = {"value": rate}
    return {
        "workload": "fleet",
        "seed": seed,
        "trace": False,
        "metrics": metrics,
        "as_timed": {"frames_per_s": timed, "setup_s": 1.0},
        "quality": {"q": 1.0},
        "attempted": 1,
        "failed": 0,
    }


def test_compare_fails_a_slowdown_seen_only_as_timed() -> None:
    base = [compare_record(seed, 100.0 + seed % 3, 100.0 + seed % 3) for seed in range(10)]
    hidden = [compare_record(seed, 100.0 + seed % 3, 70.0 + seed % 3) for seed in range(10)]
    lines, passed = compare.compare(base, hidden, BENCHMARK)
    assert not passed
    assert any("frames_per_s as timed" in line and "worse" in line for line in lines)
    assert compare.compare(base, base, BENCHMARK)[1]


def test_doubling_a_pure_layer_adds_calls_but_not_outputs() -> None:
    workload = TINY["fleet"]()
    plain = workload.run()
    counts = {}
    for doubled in (False, True):
        tracer = layers.LayerTracer()
        # Doubling inside the traced repetition makes each call two spans.
        with tracer.rep(0), layers.doubled("resample") if doubled else contextlib.nullcontext():
            out = workload.run(tracer.op)
        assert (out.digest, out.ops, out.quality) == (plain.digest, plain.ops, plain.quality)
        counts[doubled] = sum(record.name == "resample" for record in tracer.spans.records)
    assert counts[True] == 2 * counts[False] > 0
    with pytest.raises(ValueError, match="cannot double"):
        layers.doubled("encode")


#: Each workload at a size that runs in about a second.
TINY = {
    "link-gray": lambda: workloads.LinkWorkload(3, scale=ExperimentScale.quick(), frames=16),
    "link-video-faults": lambda: workloads.LinkWorkload(
        3, video="video", faults=workloads.LINK_FAULTS, scale=ExperimentScale.quick(), frames=16
    ),
    "fleet": lambda: workloads.FleetWorkload(3, cohorts="near:n=2,dwell=1.5", horizon_s=2.0),
    "flicker": lambda: workloads.FlickerWorkload(
        3, stimuli=workloads.FLICKER_STIMULI[:1], duration_s=0.05
    ),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_repeats_exactly_traced_or_not(name: str) -> None:
    def entry_points() -> list[object]:
        hooks = layers.HOOKS + layers.OP_HOOKS
        return [owner.__dict__[attr] for owner, attr in map(layers._resolve, hooks)]

    workload = TINY[name]()
    first = workload.run()
    originals = entry_points()
    tracer = layers.LayerTracer()
    with tracer.rep(0):
        traced = workload.run(tracer.op)
    assert entry_points() == originals
    assert first.frames > 0 and first.ops
    assert (traced.digest, traced.ops, traced.quality) == (first.digest, first.ops, first.quality)
    names = {record.name for record in tracer.spans.records}
    assert "rep" in names and len(names & set(layers.LAYERS)) >= 3
