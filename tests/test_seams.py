"""Final seam tests: lifecycle corners, restart paths, cache hygiene."""

import pytest

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.io_clients import IOClientPool
from repro.core.placement import PlacementEngine
from repro.events.queue import EventQueue
from repro.events.types import EventType, FileEvent
from repro.prefetchers.util import ManagedCache
from repro.sim.core import Environment
from repro.sim.resources import Resource, Store
from repro.storage.devices import DRAM, NVME, PFS_DISK
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier

MB = 1 << 20


# ------------------------------------------------------------ engine restart
def build_engine(**cfg):
    env = Environment()
    config = HFetchConfig(
        engine_interval=cfg.pop("engine_interval", 0.1),
        engine_update_threshold=cfg.pop("engine_update_threshold", 4),
        **cfg,
    )
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", 16 * MB)
    ram = StorageTier(env, DRAM, 4 * MB)
    nvme = StorageTier(env, NVME, 8 * MB)
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    hier = StorageHierarchy([ram, nvme], pfs)
    auditor = FileSegmentAuditor(config, fs)
    auditor.start_epoch("/f")
    io = IOClientPool(env, hier)
    io.start()
    engine = PlacementEngine(env, config, hier, auditor, io)
    return env, engine, auditor, hier


def test_engine_stop_then_restart():
    env, engine, auditor, hier = build_engine()
    engine.start()
    auditor.on_event(FileEvent(EventType.READ, "/f", 0, MB, timestamp=0.0))
    env.run(until=0.5)
    passes_before = engine.passes
    engine.stop()
    env.run(until=1.0)
    engine.start()
    auditor.on_event(FileEvent(EventType.READ, "/f", MB, MB, timestamp=1.0))
    env.run(until=2.0)
    assert engine.passes > passes_before
    engine.stop()


def test_engine_start_idempotent():
    env, engine, *_ = build_engine()
    engine.start()
    engine.start()
    engine.stop()
    engine.stop()


def test_engine_pass_with_empty_dirty_is_noop():
    env, engine, auditor, hier = build_engine()
    proc = env.process(engine.run_pass())
    env.run(until=proc)
    assert engine.passes == 0


# ---------------------------------------------------------- auditor + epochs
def test_epoch_reopen_does_not_double_seed():
    env, engine, auditor, hier = build_engine()
    auditor.on_event(FileEvent(EventType.READ, "/f", 0, MB, timestamp=0.0))
    auditor.drain_dirty()
    auditor.end_epoch("/f", now=1.0)
    auditor.start_epoch("/f")
    first = len(auditor.drain_dirty())
    auditor.end_epoch("/f", now=2.0)
    auditor.start_epoch("/f")
    second = len(auditor.drain_dirty())
    assert first >= 1 and second >= 1  # heatmap re-seeds each re-open


def test_stat_on_open_without_intervening_write_keeps_cache():
    env, engine, auditor, hier = build_engine()
    fs = auditor.fs
    auditor.on_event(FileEvent(EventType.READ, "/f", 0, MB, timestamp=0.0))
    hier.place(fs.segment_id("/f", 0), MB, hier.tiers[0])
    auditor.end_epoch("/f", now=1.0)
    auditor.start_epoch("/f")  # same version: nothing invalidated
    assert hier.locate(fs.segment_id("/f", 0)) is not None
    assert auditor.invalidations == 0


# -------------------------------------------------------------- primitives
def test_priority_resource_release_unknown_request_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)
    other = Resource(env, capacity=1)
    req = other.request()
    res.release(req)  # foreign request: silently ignored
    assert res.count == 0


def test_store_get_before_put_ordering_fifo():
    env = Environment()
    st = Store(env)
    results = []

    def getter(i):
        item = yield st.get()
        results.append((i, item))

    for i in range(3):
        env.process(getter(i))
    env.run()  # all three getters now wait
    for v in "abc":
        st.offer(v)
    env.run()
    assert results == [(0, "a"), (1, "b"), (2, "c")]


def test_event_queue_level_after_mixed_ops():
    env = Environment()
    q = EventQueue(env, capacity=4)
    for i in range(4):
        q.push(i)
    assert not q.push(99)

    def consumer():
        yield q.pop()

    env.process(consumer())
    env.run()
    assert q.level == 3
    assert q.push(5)  # room again


def test_managed_cache_clear_resets_state():
    env = Environment()
    cache = ManagedCache(StorageTier(env, DRAM, 8 * MB), 4 * MB)
    cache.begin_fetch(SegmentKey("f", 0), MB)
    cache.commit_fetch(SegmentKey("f", 0))
    cache.begin_fetch(SegmentKey("f", 1), MB)
    cache.clear()
    assert len(cache) == 0
    assert cache.used == 0 and cache.reserved == 0
    assert cache.free == 4 * MB


def test_managed_cache_size_of_and_keys():
    env = Environment()
    cache = ManagedCache(StorageTier(env, DRAM, 8 * MB), 4 * MB)
    for i in range(2):
        cache.begin_fetch(SegmentKey("f", i), MB)
        cache.commit_fetch(SegmentKey("f", i))
    assert cache.size_of(SegmentKey("f", 0)) == MB
    assert cache.resident_count == 2
    cache.touch(SegmentKey("f", 0))
    assert cache.resident_keys()[-1] == SegmentKey("f", 0)


# ---------------------------------------------------------------- lookahead
def test_lookahead_stops_at_file_end():
    env, engine, auditor, hier = build_engine(lookahead_depth=8)
    fs = auditor.fs
    last = fs.get("/f").num_segments - 1
    auditor.on_event(
        FileEvent(EventType.READ, "/f", last * MB, MB, timestamp=0.0)
    )
    proc = env.process(engine.run_pass())
    env.run(until=proc)
    # no placement may reference a segment past EOF
    for key in hier.resident_segments():
        assert fs.segment_key(key).index <= last


def test_zero_lookahead_places_only_accessed():
    env, engine, auditor, hier = build_engine(lookahead_depth=0)
    auditor.on_event(FileEvent(EventType.READ, "/f", 0, MB, timestamp=0.0))
    proc = env.process(engine.run_pass())
    env.run(until=proc)
    resident = list(hier.resident_segments())
    assert resident == [auditor.fs.segment_id("/f", 0)]
