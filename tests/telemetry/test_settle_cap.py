"""The retention cap bounds the finalized trace, views included.

The views (``runner.read``, ``engine.place``, ``io.move_done``,
``dhm.update``) are filled after the cap froze the trace, so finalize
moves ``frozen_at`` back until at most ``max_spans`` records start by
it, and counts the rest as dropped.
"""

import pytest

from repro.sim.core import Environment
from repro.telemetry import Telemetry
from repro.telemetry.tracer import SpanTracer

from .conftest import run_hfetch
from .test_retention_cap import UNCAPPED_RECORDS


@pytest.mark.parametrize("max_spans", [100, 200, 400])
def test_finalized_trace_respects_the_cap(max_spans):
    tel = Telemetry(max_spans=max_spans, sample_interval=0.01)
    run_hfetch(telemetry=tel)
    tracer = tel.tracer
    assert len(tracer) <= max_spans
    assert len(tracer) + tracer.dropped == UNCAPPED_RECORDS
    assert tracer.frozen_at is not None
    assert all(s.start <= tracer.frozen_at for s in tracer.spans)
    assert all(s.limit == len(s.buf) for s in tracer._streams)


def test_settle_freezes_at_the_latest_start_that_fits():
    env = Environment()
    tracer = SpanTracer(env, max_spans=3)
    append = tracer.stream("fs.emit", track="inotify").append
    for ts in (0.0, 1.0, 1.0, 2.0, 3.0):
        append((ts, None))
    tracer.begin("run", track="runner")  # starts at 0.0
    tracer.settle_cap()
    # four records start by 1.0, so the latest time keeping three is 0.0
    assert tracer.frozen_at == 0.0
    assert len(tracer) == 2 and tracer.dropped == 4
    append((4.0, None))  # the cached method still works, and is capped
    tracer.enforce_caps()
    assert len(tracer) == 2 and tracer.dropped == 5


def test_settle_keeps_an_uncapped_trace():
    env = Environment()
    tracer = SpanTracer(env, max_spans=3)
    append = tracer.stream("fs.emit", track="inotify").append
    for ts in (0.0, 1.0, 2.0):
        append((ts, None))
    tracer.settle_cap()
    assert tracer.frozen_at is None and len(tracer) == 3 and tracer.dropped == 0
