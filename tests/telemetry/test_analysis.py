"""Edge-case coverage for the post-mortem trace query helpers in
:mod:`repro.telemetry.analysis`: empty traces, single events, bounds
errors, and capped (span-dropping) streams."""

import pytest

from repro.sim.core import Environment
from repro.telemetry import (
    SpanTracer,
    chrome_trace,
    flow_latencies,
    flow_paths,
    load_trace,
    percentile,
    span_durations,
    trace_spans,
)


def build_trace(body):
    """Chrome-trace dict from a generator driving a fresh tracer."""
    env = Environment()
    tracer = SpanTracer(env)
    env.process(body(env, tracer))
    env.run()
    return chrome_trace(tracer, label="unit"), tracer


# ------------------------------------------------------------- percentile
class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.0) == 0.0

    def test_single_value_is_every_percentile(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 1.1)

    def test_interpolates_between_ranks(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1 / 3) == 2.0

    def test_extremes_are_min_and_max(self):
        vals = [5.0, 1.0, 9.0, 3.0]
        assert percentile(vals, 0.0) == 1.0
        assert percentile(vals, 1.0) == 9.0

    def test_input_order_is_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == percentile(
            [1.0, 2.0, 3.0], 0.5
        )


# ------------------------------------------------------------ empty traces
class TestEmptyTrace:
    def test_trace_spans_of_empty_dict(self):
        assert trace_spans({}) == []
        assert trace_spans({"traceEvents": []}) == []

    def test_flow_helpers_on_empty_trace(self):
        assert flow_paths({}) == {}
        assert flow_latencies({}, "a", "b") == []
        assert span_durations({}, "a") == []

    def test_empty_tracer_exports_clean(self):
        env = Environment()
        tracer = SpanTracer(env)
        data = chrome_trace(tracer)
        assert trace_spans(data) == []
        assert flow_paths(data) == {}


# ----------------------------------------------------------- single event
class TestSingleEvent:
    def test_single_instant(self):
        def body(env, tracer):
            tracer.stream("fs.emit", track="inotify").append((env.now, 1))
            yield env.timeout(0)

        data, _tracer = build_trace(body)
        spans = trace_spans(data)
        assert [s["name"] for s in spans] == ["fs.emit"]
        assert spans[0]["flow"] == 1
        assert spans[0]["dur"] == 0.0
        assert flow_paths(data) == {1: spans}
        # one stage only: no start->end pair exists
        assert flow_latencies(data, "fs.emit", "engine.place") == []
        # degenerate same-stage query: zero latency, not a crash
        assert flow_latencies(data, "fs.emit", "fs.emit") == [(1, 0.0)]

    def test_single_span_duration(self):
        def body(env, tracer):
            span = tracer.begin("monitor.service", track="hm-0")
            yield env.timeout(0.25)
            tracer.end(span)

        data, _tracer = build_trace(body)
        assert span_durations(data, "monitor.service") == [
            pytest.approx(0.25)
        ]
        assert span_durations(data, "missing") == []


# ------------------------------------------------------------ flow queries
class TestFlowQueries:
    def test_latency_measured_first_start_to_first_end_after_it(self):
        def body(env, tracer):
            emit = tracer.stream("fs.emit", track="inotify").append
            place = tracer.stream("engine.place", track="engine").append
            emit((env.now, 1))
            yield env.timeout(0.050)
            place((env.now, 1))
            yield env.timeout(0.010)
            place((env.now, 1))

        data, _tracer = build_trace(body)
        assert flow_latencies(data, "fs.emit", "engine.place") == [
            (1, pytest.approx(0.050))
        ]

    def test_flows_missing_a_stage_are_skipped(self):
        def body(env, tracer):
            tracer.stream("fs.emit", track="inotify").append((env.now, 1))
            tracer.stream("engine.place", track="engine").append((env.now, 2))
            yield env.timeout(0)

        data, _tracer = build_trace(body)
        assert flow_latencies(data, "fs.emit", "engine.place") == []
        assert set(flow_paths(data)) == {1, 2}


# ------------------------------------------------------------ capped streams
class TestCappedStream:
    def test_dropped_spans_dont_break_analysis(self):
        env = Environment()
        tracer = SpanTracer(env, max_spans=4)
        emit = tracer.stream("fs.emit", track="inotify").append

        def body():
            for i in range(32):
                emit((env.now, i))
                tracer.enforce_caps()
                yield env.timeout(0.001)

        env.process(body())
        env.run()
        assert tracer.dropped > 0
        data = chrome_trace(tracer)
        spans = trace_spans(data)
        # what survived the cap is still well-formed and queryable
        assert 0 < len(spans) <= 4 + tracer.dropped
        assert all(s["name"] == "fs.emit" for s in spans)
        paths = flow_paths(data)
        assert len(paths) == len(spans)

    def test_roundtrip_through_file(self, tmp_path):
        def body(env, tracer):
            tracer.stream("fs.emit", track="inotify").append((env.now, 1))
            yield env.timeout(0)

        data, _tracer = build_trace(body)
        path = tmp_path / "run.trace.json"
        import json

        path.write_text(json.dumps(data))
        loaded = load_trace(path)
        assert trace_spans(loaded) == trace_spans(data)
