"""SpanTracer: timestamps, ordering, tracks, caps — under the DES clock."""

import pytest

from repro.sim.core import Environment
from repro.telemetry import SpanTracer, chrome_trace


def test_spans_take_virtual_timestamps():
    env = Environment()
    tracer = SpanTracer(env)

    def proc():
        span = tracer.begin("work", track="t")
        yield env.timeout(1.5)
        tracer.end(span)

    env.process(proc())
    env.run()
    (span,) = tracer.spans
    assert span.start == 0.0
    assert span.end == 1.5
    assert span.duration == 1.5


def test_double_end_raises():
    env = Environment()
    tracer = SpanTracer(env)
    span = tracer.begin("once", track="t")
    tracer.end(span)
    with pytest.raises(ValueError):
        tracer.end(span)


def test_end_merges_args():
    env = Environment()
    tracer = SpanTracer(env)
    span = tracer.begin("x", track="t", a=1)
    tracer.end(span, b=2)
    assert span.args == {"a": 1, "b": 2}


def test_instants_are_zero_duration():
    env = Environment()
    tracer = SpanTracer(env)
    mark = tracer.stream("mark", track="t").append

    def proc():
        yield env.timeout(0.25)
        mark((env.now, 7))

    env.process(proc())
    env.run()
    (span,) = tracer.spans
    assert span.phase == "i"
    assert span.start == span.end == 0.25
    assert span.duration == 0.0
    assert span.flow == 7


def test_track_ids_assigned_in_first_use_order():
    env = Environment()
    tracer = SpanTracer(env)
    tracer.stream("x", track="zulu")
    tracer.begin("y", track="alpha")
    tracer.stream("x", track="zulu")
    tracer.begin("y", track="zulu")
    assert tracer.tracks == {"zulu": 0, "alpha": 1}


def test_equal_starts_put_begin_spans_first_then_streams_in_registration_order():
    env = Environment()
    tracer = SpanTracer(env)
    first = tracer.stream("first", track="s1").append
    second = tracer.stream("second", track="s2").append
    # appended in the opposite order to their registration
    second((0.0, None))
    second((0.0, None))
    first((0.0, None))
    run = tracer.begin("run", track="runner")
    tracer.end(run)
    assert [s.name for s in tracer.spans] == ["run", "first", "second", "second"]
    # tracks are numbered at their first stream() or begin(), not by export order
    assert tracer.tracks == {"s1": 0, "s2": 1, "runner": 2}
    events = [e for e in chrome_trace(tracer)["traceEvents"] if e["ph"] != "M"]
    assert [(e["name"], e["tid"]) for e in events] == [
        ("run", 2), ("first", 0), ("second", 1), ("second", 1),
    ]


def test_by_name():
    env = Environment()
    tracer = SpanTracer(env)
    a = tracer.stream("a", track="t").append
    b = tracer.stream("b", track="t").append
    a((0.0, None))
    b((0.0, None))
    a((1.0, None))
    tracer.end(tracer.begin("a", track="t"))
    assert [s.start for s in tracer.by_name("a")] == [0.0, 0.0, 1.0]


def test_max_spans_cap_counts_drops():
    env = Environment()
    tracer = SpanTracer(env, max_spans=2)
    spans = [tracer.begin(name, track="t") for name in ("one", "two", "three")]
    for span in spans:
        tracer.end(span)  # a dropped span still ends cleanly
    assert [s.name for s in tracer.spans] == ["one", "two"]
    assert tracer.dropped == 1
