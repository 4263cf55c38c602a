"""Unit tests for the event substrate (repro.events)."""

import pytest

from repro.core.config import HFetchConfig
from repro.core.monitor import HardwareMonitor
from repro.events.inotify import SimInotify
from repro.events.queue import EventQueue
from repro.events.types import CapacityEvent, EventType, FileEvent
from repro.sim.core import Environment


# ------------------------------------------------------------------- types
def test_file_event_is_access_only_for_read_write():
    assert FileEvent(EventType.READ, "f", 0, 1).is_access()
    assert FileEvent(EventType.WRITE, "f", 0, 1).is_access()
    assert not FileEvent(EventType.OPEN, "f").is_access()
    assert not FileEvent(EventType.CLOSE, "f").is_access()


def test_event_ids_monotonic():
    a = FileEvent(EventType.OPEN, "f")
    b = FileEvent(EventType.CLOSE, "f")
    assert b.eid > a.eid


def test_event_str_forms():
    read = FileEvent(EventType.READ, "f", offset=1, size=2, timestamp=0.5)
    assert "off=1" in str(read)
    cap = CapacityEvent("RAM", 123.0, timestamp=1.0)
    assert "RAM" in str(cap)


# ------------------------------------------------------------------- queue
def test_queue_capacity_validation():
    with pytest.raises(ValueError):
        EventQueue(Environment(), capacity=0)


def test_queue_push_pop_fifo():
    env = Environment()
    q = EventQueue(env)
    out = []

    def consumer(env):
        for _ in range(3):
            item = yield q.pop()
            out.append(item)

    env.process(consumer(env))
    for i in range(3):
        assert q.push(i)
    env.run()
    assert out == [0, 1, 2]
    assert q.produced == 3 and q.consumed == 3


def test_queue_drops_on_overflow():
    env = Environment()
    q = EventQueue(env, capacity=2)
    assert q.push(1) and q.push(2)
    assert not q.push(3)  # dropped, producer never blocks
    assert q.dropped == 1
    assert q.level == 2


def test_queue_consumption_rate_zero_until_activity():
    env = Environment()
    q = EventQueue(env)
    assert q.consumption_rate() == 0.0


def test_queue_consumption_rate_measured():
    env = Environment()
    q = EventQueue(env)

    def consumer(env):
        for _ in range(10):
            yield q.pop()
            yield env.timeout(0.1)

    env.process(consumer(env))
    for i in range(10):
        q.push(i)
    env.run()
    # 10 events consumed over ~0.9s of virtual time
    assert q.consumption_rate() == pytest.approx(10 / 0.9, rel=0.05)


# ----------------------------------------------------------------- inotify
def test_watch_refcount_first_installs_last_removes():
    env = Environment()
    ino = SimInotify(env)
    ino.add_watch("f")
    ino.add_watch("f")  # second opener bumps refcount
    assert ino.active_watches == 1
    assert not ino.rm_watch("f")  # first closer: watch stays
    assert ino.active_watches == 1
    assert ino.rm_watch("f")  # last closer removes
    assert ino.active_watches == 0
    assert ino.watches_installed == 1 and ino.watches_removed == 1


def test_rm_watch_unknown_file_is_noop():
    ino = SimInotify(Environment())
    assert not ino.rm_watch("ghost")


def test_emit_only_for_watched_files():
    env = Environment()
    ino = SimInotify(env)
    q = EventQueue(env)
    ino.subscribe(q)
    assert ino.emit(EventType.READ, "unwatched", 0, 1) is None
    assert ino.events_suppressed == 1
    ino.add_watch("f")
    ev = ino.emit(EventType.READ, "f", 10, 20, node=3, pid=7)
    assert ev is not None and ev.offset == 10 and ev.size == 20
    assert q.level == 1


def test_emit_enriches_with_timestamp():
    env = Environment()
    env.timeout(2.5)
    env.run()
    ino = SimInotify(env)
    ino.add_watch("f")
    ev = ino.emit(EventType.READ, "f", 0, 1)
    assert ev.timestamp == 2.5


def test_fanout_to_multiple_queues():
    env = Environment()
    ino = SimInotify(env)
    q1, q2 = EventQueue(env), EventQueue(env)
    ino.subscribe(q1)
    ino.subscribe(q2)
    ino.subscribe(q1)  # duplicate subscribe is idempotent
    ino.add_watch("f")
    ino.emit(EventType.OPEN, "f")
    assert q1.level == 1 and q2.level == 1


def test_watch_event_counter():
    env = Environment()
    ino = SimInotify(env)
    watch = ino.add_watch("f")
    for _ in range(3):
        ino.emit(EventType.READ, "f", 0, 1)
    assert watch.events_seen == 3


# --------------------------------------------- monitor drain regressions
class _StubAuditor:
    def __init__(self):
        self.seen = []

    def on_events(self, events):
        self.seen.extend(events)


def make_monitor(env, queue, daemons=2):
    config = HFetchConfig(daemon_threads=daemons)
    return HardwareMonitor(env, config, queue, _StubAuditor())


def test_batched_monitor_idles_on_empty_queue():
    """Regression: daemons with no pending events must neither block the
    simulation nor busy-spin the clock forward."""
    env = Environment()
    q = EventQueue(env)
    monitor = make_monitor(env, q)
    monitor.start()
    env.run()  # a busy-spinning daemon would keep this from returning
    assert env.now == 0.0
    assert q.consumed == 0 and monitor.file_events == 0
    monitor.stop()


def test_batched_monitor_drains_then_idles():
    env = Environment()
    q = EventQueue(env)
    monitor = make_monitor(env, q)
    monitor.start()
    for i in range(3):
        q.push(FileEvent(EventType.READ, "f", offset=i, size=1, timestamp=0.0))
    env.run()
    assert monitor.file_events == 3
    assert [e.offset for e in monitor.auditor.seen] == [0, 1, 2]
    before = env.now
    env.run()  # nothing left: the pool parks without advancing time
    assert env.now == before
    monitor.stop()


@pytest.mark.parametrize("daemons", [1, 4])
def test_stopped_monitor_does_not_swallow_events(daemons):
    """Regression: daemons interrupted while blocked on ``pop()`` must
    withdraw their pending getters, or a later push is silently eaten."""
    env = Environment()
    q = EventQueue(env)
    monitor = make_monitor(env, q, daemons=daemons)
    monitor.start()
    env.run()  # daemons are now parked on empty pops
    monitor.stop()
    env.run()
    q.push(FileEvent(EventType.READ, "f", offset=0, size=1, timestamp=0.0))
    assert q.level == 1  # still here — no orphaned getter stole it

    # and a fresh consumer actually receives it
    got = []

    def consumer(env):
        item = yield q.pop()
        got.append(item)

    env.process(consumer(env))
    env.run()
    assert len(got) == 1


def test_queue_cancel_withdraws_pending_getter():
    env = Environment()
    q = EventQueue(env)
    get = q.pop()
    assert q.cancel(get)
    assert not q.cancel(get)  # second withdraw is a no-op
    q.push("x")
    assert q.level == 1  # the cancelled getter no longer consumes
