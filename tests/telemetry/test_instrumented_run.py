"""Full instrumented HFetch run: the issue's acceptance criterion.

One ``runner.run(..., telemetry=Telemetry(...))`` must produce a valid
Chrome trace in which at least one fs event is traceable end-to-end
through queue → auditor → DHM → placement → movement spans.
"""

import json
import math

import pytest

from repro.telemetry import (
    Telemetry,
    flow_latencies,
    flow_paths,
    load_trace,
    validate_chrome_trace,
)

from .conftest import run_hfetch

PIPELINE = {
    "fs.emit",
    "queue.pop",
    "auditor.fold",
    "dhm.update",
    "engine.place",
    "io.move_done",
}


@pytest.fixture(scope="module")
def instrumented():
    tel = Telemetry(label="itest", sample_interval=0.05)
    runner, result = run_hfetch(telemetry=tel)
    return tel, runner, result


def test_trace_exports_and_validates(instrumented, tmp_path):
    tel, _, _ = instrumented
    path = tmp_path / "run.trace.json"
    data = tel.export_chrome_trace(path)
    assert validate_chrome_trace(data) > 0
    assert validate_chrome_trace(load_trace(path)) > 0


def test_at_least_one_event_fully_traceable(instrumented, tmp_path):
    tel, _, _ = instrumented
    path = tmp_path / "run.trace.json"
    tel.export_chrome_trace(path)
    paths = flow_paths(load_trace(path))
    assert paths, "no flows recorded"
    full = [
        fid
        for fid, spans in paths.items()
        if PIPELINE <= {s["name"] for s in spans}
    ]
    assert full, (
        "no fs event traced end-to-end through "
        "queue -> auditor -> DHM -> placement -> movement"
    )
    # the stages of a traced flow appear in causal order
    fid = full[0]
    order = [s["name"] for s in paths[fid] if s["name"] in PIPELINE]
    assert order.index("fs.emit") < order.index("auditor.fold")
    assert order.index("auditor.fold") < order.index("engine.place")
    assert order.index("engine.place") < order.index("io.move_done")


def test_flow_latency_queries(instrumented, tmp_path):
    tel, _, _ = instrumented
    path = tmp_path / "run.trace.json"
    tel.export_chrome_trace(path)
    trace = load_trace(path)
    lat = flow_latencies(trace, "fs.emit", "engine.place")
    assert lat and all(d >= 0 for _, d in lat)
    # the live-handle query agrees with the file-based one
    assert sorted(d for _, d in lat) == sorted(
        tel.tracer.flow_latencies("fs.emit", "engine.place").values()
    )


def test_headline_in_result_extra(instrumented):
    tel, _, result = instrumented
    headline = result.extra["telemetry"]
    assert headline["trace_spans"] == len(tel.tracer.spans)
    assert headline["trace_flows"] > 0
    assert "event_to_place_p99_s" in headline


def test_layer_metrics_populated(instrumented):
    tel, runner, result = instrumented
    reg = tel.registry
    server = runner.prefetcher.server
    gauges = reg.gauges()
    assert gauges["queue.pushed"] == server.queue.produced
    # one observation per read *operation* (an op may span several segments)
    assert 0 < reg.get("read.latency_s").count <= result.hits + result.misses
    assert reg.get("io.move_latency_s").count == server.io_clients.moves_completed
    assert reg.get("dhm.stats.op_cost_s").count > 0
    assert reg.get("engine.dirty_batch").count == server.engine.passes
    # gauge sources read the live counters
    assert gauges["engine.passes"] == server.engine.passes
    assert gauges["io.bytes_moved"] == server.io_clients.bytes_moved


def test_sampler_flushed_final_sample(instrumented):
    tel, runner, result = instrumented
    assert tel.registry.samples, "sampler recorded nothing"
    last_when, row = tel.registry.samples[-1]
    # satellite fix: stop() flushes a sample at the stop instant, so the
    # timeline's tail reaches the end of the run (not one interval short)
    assert last_when == pytest.approx(result.end_to_end_time)
    assert "tier.RAM.used" in row


def test_tier_occupancy_series_rises_above_zero(instrumented):
    tel, _, _ = instrumented
    series = tel.registry.gauge_series("tier.RAM.used")
    assert len(series) == len(tel.registry.samples)
    assert all(t0 < t1 for (t0, _), (t1, _) in zip(series, series[1:]))
    assert series[0][1] == 0
    assert max(used for _, used in series) > 0


def test_sample_interval_must_be_positive():
    with pytest.raises(ValueError):
        Telemetry(sample_interval=0)


def test_timeline_is_the_counters(instrumented, tmp_path):
    tel, runner, result = instrumented
    _, row = tel.registry.samples[-1]
    # the last sample is the server's counters plus the runner's reads
    reads = {
        k: v for k, v in row.items() if k.startswith("reads.") or k == "prefetch.bytes"
    }
    assert row == {**runner.prefetcher.server.metrics(), **reads}
    collector = runner.metrics
    assert reads["reads.hits"] == result.hits
    assert reads["reads.misses"] == result.misses
    assert reads["reads.bytes"] == collector.bytes_read
    assert reads["prefetch.bytes"] == runner.prefetcher.bytes_prefetched
    for tier, hits in collector.tier_hits.items():
        assert reads[f"reads.tier.{tier}"] == hits
    # every sampled value is a finite number ...
    for _, sample in tel.registry.samples:
        for name, value in sample.items():
            assert isinstance(value, (int, float)), name
            assert math.isfinite(value), name

    # ... so the JSONL export is strict JSON (no NaN / Infinity)
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    path = tmp_path / "metrics.jsonl"
    tel.export_metrics_jsonl(path)
    for line in path.read_text().splitlines():
        json.loads(line, parse_constant=reject)


def test_summary_table_renders(instrumented):
    tel, _, _ = instrumented
    text = tel.summary_table()
    assert "telemetry: itest" in text
    assert "histograms" in text
    assert "spans" in text
