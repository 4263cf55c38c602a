"""Exporters + schema + analysis: Chrome trace, JSONL, console, queries."""

import json

import pytest

from repro.sim.core import Environment
from repro.telemetry import (
    MetricRegistry,
    SpanTracer,
    Telemetry,
    TraceValidationError,
    chrome_trace,
    export_metrics_jsonl,
    flow_latencies,
    flow_paths,
    load_trace,
    metrics_records,
    percentile,
    span_durations,
    trace_spans,
    validate_chrome_trace,
)


def tiny_trace():
    """A hand-built two-flow trace: emit → service → fold → place."""
    env = Environment()
    tracer = SpanTracer(env)
    emit = tracer.stream("fs.emit", track="inotify").append
    service = tracer.stream("monitor.service", track="hm-0", kind="span").append
    fold = tracer.stream("auditor.fold", track="auditor").append
    place = tracer.stream("engine.place", track="engine", fields=("tier",)).append

    def proc():
        emit((env.now, 1))
        start = env.now
        yield env.timeout(0.010)
        service((start, env.now, 1))
        fold((env.now, 1))
        emit((env.now, 2))
        yield env.timeout(0.020)
        place((env.now, 1, "RAM"))

    env.process(proc())
    env.run()
    return tracer


class TestChromeTrace:
    def test_valid_against_schema(self):
        data = chrome_trace(tiny_trace(), label="unit")
        n = validate_chrome_trace(data)
        assert n == len(data["traceEvents"])

    def test_microsecond_timestamps(self):
        data = chrome_trace(tiny_trace())
        service = [
            e for e in data["traceEvents"] if e["name"] == "monitor.service"
        ]
        assert len(service) == 1
        assert service[0]["ph"] == "X"
        assert service[0]["ts"] == 0.0
        assert service[0]["dur"] == pytest.approx(10_000.0)  # 0.010 s -> µs

    def test_flow_events_start_then_step(self):
        data = chrome_trace(tiny_trace())
        flows = [e for e in data["traceEvents"] if e["name"] == "fs-event"]
        by_id = {}
        for e in flows:
            by_id.setdefault(e["id"], []).append(e["ph"])
        assert by_id[1][0] == "s" and set(by_id[1][1:]) <= {"t"}
        assert by_id[2] == ["s"]

    def test_thread_metadata_per_track(self):
        tracer = tiny_trace()
        data = chrome_trace(tracer)
        names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == set(tracer.tracks)

    def test_other_data_counts(self):
        data = chrome_trace(tiny_trace(), label="unit")
        assert data["otherData"]["label"] == "unit"
        assert data["otherData"]["flows"] == 2
        assert data["otherData"]["spans_dropped"] == 0


class TestSchemaValidation:
    def test_rejects_non_object(self):
        with pytest.raises(TraceValidationError):
            validate_chrome_trace([])

    def test_rejects_unknown_phase(self):
        with pytest.raises(TraceValidationError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}]}
            )

    def test_rejects_complete_span_without_dur(self):
        with pytest.raises(TraceValidationError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0}]}
            )

    def test_rejects_flow_event_without_id(self):
        with pytest.raises(TraceValidationError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "s", "pid": 0, "tid": 0, "ts": 0}]}
            )


class TestAnalysis:
    def test_round_trip_through_file(self, tmp_path):
        tracer = tiny_trace()
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace(tracer)))
        trace = load_trace(path)
        spans = trace_spans(trace)
        # metadata and flow phases are filtered; timestamps back in seconds
        assert all(s["name"] != "fs-event" for s in spans)
        place = [s for s in spans if s["name"] == "engine.place"]
        assert place[0]["ts"] == pytest.approx(0.030)
        assert place[0]["flow"] == 1
        assert place[0]["args"]["tier"] == "RAM"

    def test_flow_paths_and_latencies(self):
        trace = chrome_trace(tiny_trace())
        paths = flow_paths(trace)
        assert [s["name"] for s in paths[1]] == [
            "fs.emit",
            "monitor.service",
            "auditor.fold",
            "engine.place",
        ]
        lat = flow_latencies(trace, "fs.emit", "engine.place")
        assert lat == [(1, pytest.approx(0.030))]

    def test_span_durations(self):
        trace = chrome_trace(tiny_trace())
        assert span_durations(trace, "monitor.service") == [pytest.approx(0.010)]

    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 2.0)


class TestMetricsJsonl:
    def test_records_and_file(self, tmp_path):
        reg = MetricRegistry()
        reg.add_gauges(lambda: {"c": 3, "g": 7})
        reg.histogram("h").observe(0.5)
        reg.record_sample(when=0.1)
        records = metrics_records(reg, label="unit", when=0.2)
        assert records[0] == {
            "type": "meta",
            "label": "unit",
            "metrics": 3,
            "samples": 1,
            "finalized_at": 0.2,
        }
        assert [r["type"] for r in records[1:]] == [
            "histogram",
            "gauge",
            "gauge",
            "sample",
        ]
        path = tmp_path / "metrics.jsonl"
        n = export_metrics_jsonl(reg, path, label="unit")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == n == len(records)
        assert all(json.loads(line) for line in lines)


class TestSummaryTable:
    def test_unbound_handle_export_raises(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            tel.export_chrome_trace("/tmp/never.json")
