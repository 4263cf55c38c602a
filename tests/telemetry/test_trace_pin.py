"""Trace pin: the exported Chrome trace of the suite's fixture run.

Per-stream record counts and a digest of every exported trace event,
recorded while ``engine.place``, ``io.move_done`` and ``dhm.update`` were
still appended live by the placement engine, the I/O clients and the
auditor.  The handle now fills them from the event log and the fold
records when it finalizes, and the export must not change: same
records, times, tracks, args and order.

Flow ids are file-event ``eid``s, which come from a process-wide
counter, so the digest renumbers them in order of first appearance.
"""

import hashlib
import json

from repro.telemetry import Telemetry
from repro.telemetry.exporters import chrome_trace

from .conftest import run_hfetch

#: (stream name, track, records) in registration order
STREAM_COUNTS = [
    ("runner.read", "rank-0", 6),
    ("runner.read", "rank-1", 6),
    ("runner.read", "rank-2", 6),
    ("runner.read", "rank-3", 6),
    ("runner.read", "rank-4", 6),
    ("runner.read", "rank-5", 6),
    ("runner.read", "rank-6", 6),
    ("runner.read", "rank-7", 6),
    ("fs.emit", "inotify", 64),
    ("queue.pop", "queue", 64),
    ("queue.drop", "queue", 0),
    ("auditor.fold", "auditor", 47),
    ("dhm.update", "dhm", 47),
    ("engine.place", "engine", 48),
    ("io.move", "io-RAM", 4),
    ("io.move_done", "io-RAM", 16),
    ("io.move", "io-NVMe", 4),
    ("io.move_done", "io-NVMe", 32),
    ("io.move", "io-BurstBuffer", 0),
    ("io.move_done", "io-BurstBuffer", 0),
    ("monitor.service", "hm-daemon-0", 11),
    ("monitor.service", "hm-daemon-1", 11),
    ("monitor.service", "hm-daemon-2", 10),
    ("monitor.service", "hm-daemon-3", 10),
    ("monitor.service", "hm-daemon-4", 10),
    ("monitor.service", "hm-daemon-5", 10),
]

TRACE_SHA256 = "1f55158786b3e76f3c921e318cdd67d967190a9334c7881d5eee9f74670b64b4"


def trace_digest(tel) -> str:
    """sha256 of the exported trace events, flow ids renumbered."""
    flows: dict = {}
    events = []
    for ev in chrome_trace(tel.tracer, label=tel.label)["traceEvents"]:
        ev = dict(ev)
        if "id" in ev:
            ev["id"] = flows.setdefault(ev["id"], len(flows))
        args = ev.get("args")
        if args and "flow" in args:
            ev["args"] = {**args, "flow": flows.setdefault(args["flow"], len(flows))}
        events.append(ev)
    return hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()


def fixture_run() -> Telemetry:
    tel = Telemetry(label="itest", sample_interval=0.05)
    run_hfetch(telemetry=tel)
    return tel


def test_stream_record_counts_match_the_pin():
    tel = fixture_run()
    counts = [(s.name, s.track, len(s)) for s in tel.tracer._streams]
    assert counts == STREAM_COUNTS
    assert tel.tracer.dropped == 0


def test_exported_trace_matches_the_pin():
    assert trace_digest(fixture_run()) == TRACE_SHA256


def test_digest_does_not_depend_on_the_eid_counter():
    # a second run in the same process starts from later eids
    assert trace_digest(fixture_run()) == trace_digest(fixture_run())
