"""Checks of the benchmark itself.  Run: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
from layers import CALL_SPANS, LayerTracer  # noqa: E402
from report import END_TO_END, PER_LAYER, tail_percentile  # noqa: E402
from repro.core.placement import PlacementEngine  # noqa: E402
from repro.sim.core import Environment  # noqa: E402


def test_divisor_8_montage_matches_the_recorded_baseline():
    outcome = cases.WorkflowCase(cases.montage, seed=2020, divisor=8).run()
    assert outcome.problems == []
    assert outcome.reads == 12_800
    assert round(outcome.sim["hit_ratio"], 4) == 0.5077


def test_traced_run_reproduces_the_untraced_run_and_its_accounts_close():
    untraced = cases.WorkflowCase(cases.montage, seed=7, divisor=32).run()
    originals = [cls.__dict__[attr] for cls, attr, _ in CALL_SPANS]
    with LayerTracer() as tracer:
        traced = cases.WorkflowCase(cases.montage, seed=7, divisor=32).run()
    assert traced.problems == [] and untraced.problems == []
    assert traced.fingerprint == untraced.fingerprint
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.attributed_s)
    assert 0 < tracer.attributed_s < traced.host_s
    assert tracer.calls["auditor.stats_of"] > 0
    assert len(tracer.pass_ms) == traced.counters["engine"].passes
    # every wrapper is gone again
    assert [cls.__dict__[attr] for cls, attr, _ in CALL_SPANS] == originals
    assert Environment.process.__qualname__ == "Environment.process"
    assert PlacementEngine.run_pass.__qualname__ == "PlacementEngine.run_pass"


def test_events_case_consumes_every_offered_event():
    outcome = cases.build("events", seed=3).run()
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.reads == outcome.attempted


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile([]) == (0.0, 0.0)
    assert tail_percentile([1.0, 2.0]) == (100.0, 2.0)
    p, value = tail_percentile([float(i) for i in range(1000)])
    assert p == 99.0 and value == 990.0
