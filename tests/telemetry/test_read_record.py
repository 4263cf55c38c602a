"""The event log is the one per-read record.

The always-on :class:`~repro.metrics.collector.MetricsCollector` keeps
the counters a ``RunResult`` is made of; with telemetry on they must
equal the counts over the log's ``EV_READ`` records.  The ``runner.read``
spans and the ``read.latency_s`` histogram are derived from the log when
the handle finalizes, so nothing appends to them during the run and the
retention cap cannot thin the histogram.
"""

from collections import Counter

import pytest

from repro.core.prefetcher import HFetchPrefetcher
from repro.diagnosis.provenance import EV_READ
from repro.faults import FaultPlan
from repro.runtime.runner import WorkflowRunner
from repro.telemetry import Telemetry

from .conftest import hfetch_config, run_hfetch, small_cluster, small_workload

#: read requests of the fixture workload: 8 ranks x 3 steps x 2 reads
FIXTURE_REQUESTS = 48


def log_counts(prov) -> dict:
    hits, misses, tier_hits, tier_misses, nbytes = 0, 0, Counter(), Counter(), 0
    for ev in prov.events:
        if ev[0] == EV_READ:
            _tag, _t, _sid, served, origin, hit, n, _pid, _t0, _size = ev
            if hit:
                hits += 1
                tier_hits[served] += 1
            else:
                misses += 1
                tier_misses[origin] += 1
            nbytes += n
    return dict(hits=hits, misses=misses, tier_hits=dict(tier_hits),
                tier_misses=dict(tier_misses), bytes_read=nbytes)


def collector_counts(m) -> dict:
    return dict(hits=m.hits, misses=m.misses, tier_hits=dict(m.tier_hits),
                tier_misses=dict(m.tier_misses), bytes_read=m.bytes_read)


def test_collector_equals_the_log_on_the_fixture_run():
    tel = Telemetry(sample_interval=0.05)
    runner, _ = run_hfetch(telemetry=tel)
    assert collector_counts(runner.metrics) == log_counts(tel.provenance)


def test_collector_equals_the_log_under_a_fault_plan():
    tel = Telemetry(sample_interval=0.05)
    plan = FaultPlan(seed=3).tier_outage("RAM", at=0.1)
    runner = WorkflowRunner(
        small_cluster(), small_workload(), HFetchPrefetcher(hfetch_config()),
        fault_plan=plan, telemetry=tel,
    )
    result = runner.run()
    assert result.faults  # the outage fired
    assert collector_counts(runner.metrics) == log_counts(tel.provenance)


def test_runner_read_is_not_appended_during_the_run():
    tel = Telemetry(sample_interval=0.01)
    tel.registry.add_gauges(
        lambda: {"test.read_spans": sum(len(s) for s in tel.tracer.named("runner.read"))}
    )
    run_hfetch(telemetry=tel)
    series = tel.registry.gauge_series("test.read_spans")
    assert len(series) > 1 and all(v == 0 for _t, v in series)
    assert sum(len(s) for s in tel.tracer.named("runner.read")) == FIXTURE_REQUESTS


@pytest.mark.parametrize("max_spans", [100, 1_000_000])
def test_read_latency_counts_every_request_under_the_cap(max_spans):
    tel = Telemetry(max_spans=max_spans, sample_interval=0.01)
    run_hfetch(telemetry=tel)
    assert tel.registry.get("read.latency_s").count == FIXTURE_REQUESTS
