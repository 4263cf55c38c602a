"""Equivalence of the auditor's event fold with a per-op reference model.

``FileSegmentAuditor.on_events`` mutates segment records in place on
their shard and charges the map traffic in one aggregate.  Its contract
is the observable state and accounting of a fold that does one charged
DHM op per map access (:func:`reference_fold`).  These tests drive both
over deterministic mixed workloads (multiple files, pids, nodes,
multi-segment reads, interleaved writes, missing files, zero-size
reads, a shard outage) and compare every piece of state the rest of the
system can observe.
"""

from __future__ import annotations

import pytest

from repro.core.auditor import DIRTY_VECTOR_CAPACITY, FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.stats import SegmentStats
from repro.dhm.hashmap import DistributedHashMap
from repro.dhm.wal import WriteAheadLog
from repro.events.types import EventType, FileEvent
from repro.storage.files import FileSystemModel

MB = 1 << 20


def make_fs() -> FileSystemModel:
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/a", 64 * MB)
    fs.create("/b", 16 * MB + 123)  # short last segment
    fs.create("/c", 3 * MB)
    return fs


def make_events() -> list[FileEvent]:
    """A deterministic pseudo-random mixed sequence (no RNG needed)."""
    events: list[FileEvent] = []
    files = ["/a", "/b", "/c", "/missing"]
    t = 0.0
    for i in range(400):
        t += 1e-4
        fid = files[(i * 7) % len(files)]
        pid = (i * 3) % 5
        node = (i * 11) % 7
        if i % 23 == 19:
            events.append(
                FileEvent(EventType.WRITE, fid, timestamp=t, pid=pid, node=node)
            )
            continue
        offset = ((i * 13) % 60) * MB + (i % 3) * 1000
        size = [MB // 2, MB, 3 * MB + 17, 0][i % 4]
        events.append(
            FileEvent(
                EventType.READ, fid, offset=offset, size=size,
                timestamp=t, pid=pid, node=node,
            )
        )
    return events


def reference_fold(auditor: FileSegmentAuditor, event: FileEvent) -> None:
    """The per-event fold, written against the public DHM API.

    Each segment a read touches is one atomic ``update`` of its record,
    plus a ``get`` of the stream's predecessor and, when that record
    exists, a separate ``update`` that links it to the segment.  Every
    map access is its own charged op, so this is the accounting that the
    shard-local fast path in :meth:`FileSegmentAuditor.on_events` must
    reproduce.
    """
    auditor.events_processed += 1
    if event.etype is EventType.WRITE:
        auditor._on_write(event)
        return
    if event.etype is not EventType.READ or not auditor.fs.exists(event.file_id):
        return
    f = auditor.fs.get(event.file_id)
    dhm = auditor.stats_map
    prev = auditor._last_segment.get(event.file_id, {}).get(event.pid)
    keys = f.read_segments(event.offset, event.size)
    for key in keys:

        def record(stats, key=key):
            if stats is None:
                stats = SegmentStats(key=key, nbytes=f.segment_bytes(key))
            stats.record(event.timestamp)
            return stats

        def link(stats, key=key):
            stats.link_successor(key)
            return stats

        dhm.update(key, record, from_shard=event.node % dhm.shards)
        if prev is not None and prev != key and dhm.get(prev) is not None:
            dhm.update(prev, link)
        auditor._home_node.setdefault(key, event.node)
        dirty = auditor._dirty
        if key in dirty or len(dirty) < DIRTY_VECTOR_CAPACITY:
            dirty[key] = None
        else:
            auditor.dirty_dropped += 1
        auditor.score_updates += 1
        prev = key
    if keys:
        auditor._last_segment.setdefault(event.file_id, {})[event.pid] = keys[-1]


def fold_reference(auditor: FileSegmentAuditor, events) -> None:
    for ev in events:
        reference_fold(auditor, ev)


def fold_one_at_a_time(auditor: FileSegmentAuditor, events) -> None:
    """What the hardware monitor's daemons do."""
    for ev in events:
        auditor.on_events((ev,))


def stats_state(auditor: FileSegmentAuditor) -> dict:
    out = {}
    for key, stats in sorted(auditor.stats_map.items()):
        out[key] = (
            stats.refs,
            list(stats.times),
            stats.last_access,
            dict(stats.successors),
            stats.nbytes,
        )
    return out


def assert_equivalent(ref: FileSegmentAuditor, fold: FileSegmentAuditor) -> None:
    assert stats_state(ref) == stats_state(fold)
    assert list(ref._dirty) == list(fold._dirty)
    assert ref._last_segment == fold._last_segment
    assert ref._home_node == fold._home_node
    assert ref.events_processed == fold.events_processed
    assert ref.score_updates == fold.score_updates
    assert ref.invalidations == fold.invalidations
    assert ref.dirty_dropped == fold.dirty_dropped
    rm, fm = ref.stats_map, fold.stats_map
    assert rm.updates == fm.updates
    assert rm.gets == fm.gets
    assert rm.deletes == fm.deletes
    assert rm.local_ops == fm.local_ops
    assert rm.remote_ops == fm.remote_ops
    assert rm.degraded_ops == fm.degraded_ops
    assert rm.retries == fm.retries
    # float summation order differs between one charge per op and one
    # aggregated charge per fold
    assert rm.total_cost == pytest.approx(fm.total_cost)


@pytest.mark.parametrize("shards", [1, 4])
def test_on_events_equivalent_to_per_event_loop(shards):
    events = make_events()
    ref, whole, single = (
        FileSegmentAuditor(
            HFetchConfig(), make_fs(), stats_map=DistributedHashMap(shards=shards)
        )
        for _ in range(3)
    )
    fold_reference(ref, events)
    assert whole.on_events(events) == len(events)
    fold_one_at_a_time(single, events)
    for fold in (whole, single):
        assert_equivalent(ref, fold)
    # drained dirty vectors (the engine's input) match in content & order
    assert ref.drain_dirty() == whole.drain_dirty() == single.drain_dirty()
    # and the scores computed from all states are identical
    keys = ref.fs.get("/a").segments()
    assert list(ref.batch_score(keys, 1.0)) == list(single.batch_score(keys, 1.0))


def test_shard_outage_mid_sequence_charges_like_per_op_fold():
    """With the WAL on, a shard that fails mid-sequence costs the fold
    one degraded op per map access on it, link updates included."""
    events = make_events()

    def run(fold):
        auditor = FileSegmentAuditor(
            HFetchConfig(),
            make_fs(),
            stats_map=DistributedHashMap(shards=4, wal=WriteAheadLog()),
        )
        fold(auditor, events[:150])
        auditor.stats_map.fail_shard(1)
        fold(auditor, events[150:300])
        auditor.stats_map.recover_shard(1)
        fold(auditor, events[300:])
        return auditor

    ref = run(fold_reference)
    fold = run(fold_one_at_a_time)
    assert fold.stats_map.degraded_ops > 0
    assert_equivalent(ref, fold)
    assert ref.drain_dirty() == fold.drain_dirty()


def test_on_events_chunked_matches_single_batch():
    """Stream sequencing links must survive batch boundaries."""
    events = make_events()
    whole = FileSegmentAuditor(HFetchConfig(), make_fs())
    chunked = FileSegmentAuditor(HFetchConfig(), make_fs())
    whole.on_events(events)
    for i in range(0, len(events), 7):
        chunked.on_events(events[i : i + 7])
    assert_equivalent(whole, chunked)


def test_write_invalidation_ordering_within_batch():
    """read → write → read of one file in a single batch: the write wipes
    the first read's statistics, the second read rebuilds from scratch."""
    fs = make_fs()
    config = HFetchConfig()
    events = [
        FileEvent(EventType.READ, "/a", offset=0, size=2 * MB, timestamp=0.1, pid=1),
        FileEvent(EventType.WRITE, "/a", timestamp=0.2, pid=1),
        FileEvent(EventType.READ, "/a", offset=0, size=MB, timestamp=0.3, pid=1),
    ]
    ref = FileSegmentAuditor(config, make_fs())
    batched = FileSegmentAuditor(config, fs)
    fold_reference(ref, events)
    batched.on_events(events)
    assert_equivalent(ref, batched)
    # the surviving record is the post-write access only
    a = fs.get("/a").segment_id
    s = batched.stats_of(a(0))
    assert s is not None and s.refs == 1 and list(s.times) == [0.3]
    assert batched.stats_of(a(1)) is None
    # predecessor chain was reset by the invalidation
    assert batched._last_segment["/a"][1] == a(0)


def test_cross_stream_sequencing_in_batch():
    """Interleaved pids keep per-stream predecessor chains separate."""
    fs = make_fs()
    events = [
        FileEvent(EventType.READ, "/a", offset=0, size=MB, timestamp=0.1, pid=1),
        FileEvent(EventType.READ, "/a", offset=10 * MB, size=MB, timestamp=0.2, pid=2),
        FileEvent(EventType.READ, "/a", offset=1 * MB, size=MB, timestamp=0.3, pid=1),
        FileEvent(EventType.READ, "/a", offset=11 * MB, size=MB, timestamp=0.4, pid=2),
    ]
    auditor = FileSegmentAuditor(HFetchConfig(), fs)
    auditor.on_events(events)
    a = fs.get("/a").segment_id
    s0 = auditor.stats_of(a(0))
    s10 = auditor.stats_of(a(10))
    assert s0.successors == {a(1): 1}
    assert s10.successors == {a(11): 1}
    assert auditor._last_segment["/a"] == {1: a(1), 2: a(11)}


def test_on_events_notifies_listeners_once_with_final_count():
    """One call per fold, with that fold's number of score updates."""
    auditor = FileSegmentAuditor(HFetchConfig(), make_fs())
    calls: list[int] = []
    auditor.add_update_listener(calls.append)
    auditor.on_events(
        [
            FileEvent(EventType.READ, "/a", offset=0, size=3 * MB, timestamp=0.1),
            FileEvent(EventType.READ, "/a", offset=3 * MB, size=MB, timestamp=0.2),
        ]
    )
    assert calls == [4]
    auditor.on_events(
        [FileEvent(EventType.READ, "/a", offset=4 * MB, size=2 * MB, timestamp=0.3)]
    )
    assert calls == [4, 2]
    assert auditor.score_updates == 6


def test_on_events_respects_dirty_capacity():
    fs = make_fs()
    n = DIRTY_VECTOR_CAPACITY + 2
    fs.create("/big", n * MB)
    auditor = FileSegmentAuditor(HFetchConfig(), fs)
    auditor.on_events(
        [FileEvent(EventType.READ, "/big", offset=0, size=n * MB, timestamp=0.1)]
    )
    assert len(auditor._dirty) == DIRTY_VECTOR_CAPACITY
    assert auditor.dirty_dropped == 2
    assert auditor.drain_dirty() == [
        fs.segment_id("/big", i) for i in range(DIRTY_VECTOR_CAPACITY)
    ]
