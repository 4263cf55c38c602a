"""The tracer's retention cap applies to stream records and to spans
from ``begin()`` alike.

Instrumented layers cache a stream's bound ``append`` when they bind, so
the cap trims buffers in place instead of replacing the method.
"""

from repro.sim.core import Environment
from repro.telemetry import Telemetry
from repro.telemetry.tracer import SpanTracer

from .conftest import run_hfetch

#: records of the capped run below with no cap in force
UNCAPPED_RECORDS = 439


def test_cap_trims_streams_whose_append_was_cached():
    env = Environment()
    tracer = SpanTracer(env, max_spans=3)
    append = tracer.stream("fs.emit", track="inotify").append
    for i in range(3):
        append((float(i), i))
    tracer.enforce_caps()
    assert tracer.frozen_at == 0.0  # frozen at three records
    for i in range(3, 10):
        append((float(i), i))
    tracer.enforce_caps()
    (stream,) = tracer.named("fs.emit")
    assert stream.limit is not None and len(stream) == 3
    assert tracer.dropped == stream.dropped == 7
    append((10.0, 10))  # the cached method still works
    tracer.enforce_caps()
    assert len(tracer) == 3 and tracer.dropped == 8
    # a span opened once the trace is frozen is counted, not kept
    tracer.end(tracer.begin("engine.pass", track="engine"))
    assert len(tracer) == 3 and tracer.dropped == 9


def test_uncapped_run_record_count():
    tel = Telemetry(sample_interval=0.01)
    run_hfetch(telemetry=tel)
    assert len(tel.tracer) == UNCAPPED_RECORDS
    assert tel.tracer.dropped == 0


def test_capped_run_drops_stream_records():
    tel = Telemetry(max_spans=100, sample_interval=0.01)
    run_hfetch(telemetry=tel)
    tracer = tel.tracer
    assert all(s.limit is not None for s in tracer._streams)
    assert tracer.dropped > 0
    assert len(tracer) + tracer.dropped == UNCAPPED_RECORDS


def test_capped_run_keeps_nothing_after_the_freeze():
    tel = Telemetry(max_spans=100, sample_interval=0.01)
    runner, _ = run_hfetch(telemetry=tel)
    tracer = tel.tracer
    assert tracer.frozen_at is not None
    assert all(s.start <= tracer.frozen_at for s in tracer.spans)
    # the pass histogram still sees every pass, and is created last
    engine = runner.prefetcher.server.engine
    assert tel.registry.get("engine.dirty_batch").count == engine.passes
    assert tel.registry.names()[-1] == "engine.dirty_batch"


def test_views_keep_what_was_recorded_before_the_cap():
    tel = Telemetry(max_spans=100, sample_interval=0.01)
    run_hfetch(telemetry=tel)
    tracer = tel.tracer
    (fold,) = tracer.named("auditor.fold")
    (dhm,) = tracer.named("dhm.update")
    (place,) = tracer.named("engine.place")
    # dhm.update repeats the retained fold records exactly
    assert dhm.buf[0::2] == fold.buf[0::3]
    assert dhm.dropped == fold.dropped
    # engine.place keeps the decisions made until the cap froze the trace
    assert len(place) + place.dropped == tel.provenance.decisions
    assert place.dropped > 0
    assert all(t <= tracer.frozen_at for t in place.buf[0::4])
