"""Unit tests for the hardware monitor (repro.core.monitor)."""

import pytest

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.monitor import (
    AUDITOR_LOCK_TIME,
    CAPACITY_REPORT_INTERVAL,
    EVENT_SERVICE_TIME,
    HardwareMonitor,
)
from repro.events.queue import EventQueue
from repro.events.types import CapacityEvent, EventType, FileEvent
from repro.sim.core import Environment
from repro.storage.devices import DRAM, PFS_DISK
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.tier import StorageTier

MB = 1 << 20
#: daemon time per file event: service plus the auditor hand-off
PER_EVENT = EVENT_SERVICE_TIME + AUDITOR_LOCK_TIME


def make(daemons=2, hierarchy=False):
    env = Environment()
    config = HFetchConfig(daemon_threads=daemons)
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", 8 * MB)
    auditor = FileSegmentAuditor(config, fs)
    queue = EventQueue(env)
    hier = None
    if hierarchy:
        ram = StorageTier(env, DRAM, 4 * MB)
        pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
        hier = StorageHierarchy([ram], pfs)
    mon = HardwareMonitor(env, config, queue, auditor, hierarchy=hier)
    return env, mon, queue, auditor


def test_daemons_consume_file_events_into_auditor():
    env, mon, queue, auditor = make()
    mon.start()
    for i in range(5):
        queue.push(FileEvent(EventType.READ, "/f", offset=i * MB, size=MB, timestamp=0.0))
    env.run(until=1.0)
    assert auditor.events_processed == 5
    assert mon.file_events == 5
    mon.stop()


def test_event_processing_takes_service_time():
    env, mon, queue, auditor = make(daemons=1)
    mon.start()
    for i in range(4):
        queue.push(FileEvent(EventType.READ, "/f", offset=0, size=MB))
    env.run(until=3.5 * PER_EVENT)
    assert auditor.events_processed == 3  # one event at a time, serial daemon
    mon.stop()


def test_more_daemons_consume_faster():
    def drain_time(daemons):
        env, mon, queue, _aud = make(daemons=daemons)
        mon.start()
        for i in range(20):
            queue.push(FileEvent(EventType.READ, "/f", offset=0, size=MB))
        while queue.level > 0:
            env.step()
        mon.stop()
        return env.now

    assert drain_time(4) < drain_time(1)


def test_capacity_events_update_tier_view():
    env, mon, queue, _aud = make()
    mon.start()
    queue.push(CapacityEvent("RAM", free_bytes=123.0))
    env.run(until=0.1)
    assert mon.tier_free["RAM"] == 123.0
    assert mon.capacity_events == 1
    mon.stop()


def test_capacity_watcher_reports_periodically():
    env, mon, queue, _aud = make(hierarchy=True)
    mon.start()
    env.run(until=3.5 * CAPACITY_REPORT_INTERVAL)
    mon.stop()
    assert mon.capacity_events == 3  # three reports of the single tier
    assert "RAM" in mon.tier_free


def test_start_stop_idempotent():
    env, mon, queue, _aud = make()
    mon.start()
    mon.start()
    assert mon.running
    mon.stop()
    mon.stop()
    assert not mon.running


def test_consumption_rate_exposed():
    env, mon, queue, _aud = make(daemons=2)
    mon.start()
    for i in range(50):
        queue.push(FileEvent(EventType.READ, "/f", offset=0, size=MB))
    while queue.level:
        env.step()
    assert mon.consumption_rate() > 0
    mon.stop()


# ------------------------------------------------------ single-event folds
def test_batched_daemon_folds_same_events():
    """Daemons fold each file event through ``on_events``, one at a time,
    and keep capacity events out of the auditor."""
    env, mon, queue, auditor = make(daemons=1)
    folds = []
    fold = auditor.on_events

    def spy(events):
        folds.append(len(events))
        return fold(events)

    auditor.on_events = spy
    mon.start()
    for i in range(10):
        queue.push(FileEvent(EventType.READ, "/f", offset=(i % 8) * MB, size=MB,
                             timestamp=0.0))
    queue.push(CapacityEvent(tier_name="RAM", free_bytes=123.0))
    env.run(until=1.0)
    assert folds == [1] * 10
    assert auditor.events_processed == 10
    assert mon.file_events == 10
    assert mon.capacity_events == 1
    assert mon.tier_free["RAM"] == 123.0
    mon.stop()


def test_batched_daemon_charges_per_event_service_time():
    """Each event costs one service time plus one auditor hand-off."""
    env, mon, queue, _aud = make(daemons=1)
    mon.start()
    for i in range(12):
        queue.push(FileEvent(EventType.READ, "/f", offset=0, size=MB))
    env.run(until=5.0)
    mon.stop()
    assert mon.busy_time == pytest.approx(12 * PER_EVENT)


def test_stop_while_queued_for_the_auditor_lock_frees_it():
    """A daemon interrupted while queued for the auditor lock withdraws
    its request, so a restarted pool is not blocked behind a dead one."""
    service, lock_time = EVENT_SERVICE_TIME, AUDITOR_LOCK_TIME
    env, mon, queue, auditor = make(daemons=4)
    mon.start()
    for i in range(8):
        queue.push(FileEvent(EventType.READ, "/f", offset=i * MB, size=MB, timestamp=0.0))
    # one daemon holds the lock, three are queued for it
    env.run(until=service + lock_time / 2)
    assert mon._auditor_lock.count == 1 and mon._auditor_lock.queued == 3
    mon.stop()
    env.run(until=1.0)
    assert mon._auditor_lock.count == 0 and mon._auditor_lock.queued == 0
    # the four events still buffered are folded after the restart too
    backlog = auditor.events_processed + queue.level
    mon.start()
    for i in range(8):
        queue.push(FileEvent(EventType.READ, "/f", offset=i * MB, size=MB, timestamp=1.0))
    env.run(until=2.0)
    assert queue.level == 0
    assert auditor.events_processed == backlog + 8
    assert mon._auditor_lock.count == 0
    mon.stop()
