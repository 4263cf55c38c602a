"""Segments are integer ids on every per-event and per-read path.

``FileSystemModel`` numbers each file's segments with a contiguous id
range (its id-range tests are in ``test_storage_files``).  The layers
key their state by those ids, so a run builds no ``SegmentKey`` that
outlives it and the engine's heap entries hold only atomic values, which
the cyclic GC stops tracking.  The DHM places each id on the shard of its
``SegmentKey``, so the op mix and its cost are those of the keys.
"""

import gc
import random

import pytest

from repro.core.config import HFetchConfig
from repro.core.prefetcher import HFetchPrefetcher
from repro.dhm.hashmap import DistributedHashMap
from repro.dhm.partition import KeyPartitioner
from repro.experiments.common import GB, MB, build_cluster, tier_spec
from repro.runtime.runner import WorkflowRunner
from repro.storage.files import FileSystemModel
from repro.storage.segments import SegmentKey
from repro.workloads.wrf import wrf_workload

RANKS = 20


def small_wrf_run():
    """A small WRF run on four DHM shards, telemetry off; returns the
    prefetcher (its server holds the engine)."""
    workload = wrf_workload(
        processes=RANKS,
        total_bytes=GB // 2,
        request_size=1 * MB,
        segment_size=1 * MB,
        compute_time=0.6,
        seed=2020,
    )
    tiers = tier_spec(ram=64 * MB, nvme=128 * MB, bb=GB)
    prefetcher = HFetchPrefetcher(
        HFetchConfig(engine_interval=0.25, segment_size=1 * MB, lookahead_depth=4),
        dhm_shards=4,
    )
    result = WorkflowRunner(
        build_cluster(RANKS, tiers, divisor=32), workload, prefetcher, seed=2020
    ).run()
    assert result.hits + result.misses > 0
    return prefetcher


def live_segment_keys() -> list:
    return [o for o in gc.get_objects() if type(o) is SegmentKey]


def test_a_run_leaves_no_segment_key_behind():
    before = live_segment_keys()
    seen = {id(k) for k in before}
    prefetcher = small_wrf_run()
    created = [k for k in live_segment_keys() if id(k) not in seen]
    assert created == []
    # the run did use sharded maps keyed by id
    stats_map = prefetcher.server.stats_map
    assert stats_map.shards == 4 and len(stats_map) > 0
    assert all(type(k) is int for k in stats_map.keys())


def test_engine_heap_entries_are_not_gc_tracked():
    engine = small_wrf_run().server.engine
    gc.collect()
    entries = [e for heap in engine._heaps.values() for e in heap]
    assert entries
    assert all(type(e[2]) is int for e in entries)
    assert not any(gc.is_tracked(e) for e in entries)


@pytest.mark.parametrize("shards", [4, 8])
def test_an_id_lives_on_its_segment_keys_shard(shards):
    fs = FileSystemModel(default_segment_size=MB)
    for i, size in enumerate((3 * MB, 0, 700 * MB, 5 * MB + 1, 64 * MB)):
        fs.create(f"/pfs/dataset/file_{i:03d}", size)
    dhm = DistributedHashMap(shards=shards)
    dhm.shard_key = fs.segment_key
    ring = KeyPartitioner(shards)
    total = sum(f.num_segments for f in fs.files())
    sampled = random.Random(shards).sample(range(total), 200)
    for sid in sampled:
        file_id, index = fs.segment_key(sid)
        assert dhm.shard_of(sid) == ring.shard_of(SegmentKey(file_id, index))
    # and every shard is used, as the keys would use them
    assert {dhm.shard_of(sid) for sid in sampled} == set(range(shards))
