"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.scoring import batch_scores, segment_score
from repro.core.stats import MAX_HISTORY, SegmentStats
from repro.dhm.hashmap import DistributedHashMap
from repro.dhm.partition import KeyPartitioner
from repro.dhm.wal import WriteAheadLog
from repro.prefetchers.util import ManagedCache
from repro.sim.core import Environment
from repro.storage.devices import DRAM, NVME, PFS_DISK
from repro.storage.files import SimFile
from repro.storage.hierarchy import StorageHierarchy, TierFullError
from repro.storage.segments import SegmentKey, segment_count, segment_size_of
from repro.storage.tier import StorageTier

MB = 1 << 20


# ----------------------------------------------------------- segment maths
@given(
    offset=st.integers(0, 1 << 40),
    size=st.integers(1, 1 << 30),
    seg=st.integers(1, 1 << 24),
)
def test_covering_segments_exactly_covers_range(offset, size, seg):
    assume(size // seg < 4096)  # keep the key list reasonably sized
    # a file large enough never to clip, at id base 0 (ids are indexes)
    keys = SimFile("f", offset + size, seg).read_segments(offset, size)
    assert keys, "non-empty read must touch at least one segment"
    indices = list(keys)
    # contiguous, ascending, unique
    assert indices == list(range(indices[0], indices[-1] + 1))
    # first segment contains the start, last contains the final byte
    assert indices[0] * seg <= offset < (indices[0] + 1) * seg
    last = offset + size - 1
    assert indices[-1] * seg <= last < (indices[-1] + 1) * seg


@given(file_size=st.integers(0, 1 << 40), seg=st.integers(1, 1 << 24))
def test_segment_sizes_sum_to_file_size(file_size, seg):
    assume(file_size // seg < 4096)
    n = segment_count(file_size, seg)
    total = sum(segment_size_of(i, file_size, seg) for i in range(n))
    assert total == file_size


# ------------------------------------------------------------------ scoring
time_lists = st.lists(st.floats(0, 1000, allow_nan=False), min_size=0, max_size=20)


@given(times=time_lists, refs=st.integers(1, 50), p=st.floats(2, 16), dt=st.floats(0, 100))
def test_score_bounds_and_monotone_decay(times, refs, p, dt):
    now = 1000.0
    s1 = segment_score(times, refs, now, p)
    s2 = segment_score(times, refs, now + dt, p)
    assert 0.0 <= s1 <= len(times)
    assert s2 <= s1 + 1e-12  # never grows with the passage of time


@given(times=time_lists, refs=st.integers(1, 50), p=st.floats(2, 16))
def test_extra_access_never_lowers_score(times, refs, p):
    now = 1000.0
    base = segment_score(times, refs, now, p)
    more = segment_score(times + [now], refs + 1, now, p)
    assert more >= base


@given(
    data=st.lists(
        st.tuples(
            st.lists(st.floats(0, 999, allow_nan=False), min_size=1, max_size=6),
            st.integers(1, 20),
        ),
        min_size=1,
        max_size=10,
    ),
    p=st.floats(2, 8),
)
def test_batch_scores_agree_with_scalar(data, p):
    now = 1000.0
    ages, refs, rows = [], [], []
    for i, (times, n) in enumerate(data):
        for t in times:
            ages.append(now - t)
            refs.append(n)
            rows.append(i)
    out = batch_scores(np.array(ages), np.array(refs), np.array(rows), len(data), p=p)
    for i, (times, n) in enumerate(data):
        assert out[i] == pytest.approx(segment_score(times, n, now, p), rel=1e-9)


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=3 * MAX_HISTORY))
def test_stats_record_keeps_window_sorted_enough(times):
    s = SegmentStats(key=SegmentKey("f", 0), nbytes=MB)
    for t in times:
        s.record(t)
    assert s.refs == len(times)
    assert len(s.times) == min(len(times), MAX_HISTORY)
    assert list(s.times) == sorted(s.times)  # clamping keeps it monotone


# -------------------------------------------------------------------- caches
cache_traces = st.lists(st.integers(0, 15), min_size=1, max_size=200)


def demand_cache(cap, victim_chooser=None):
    """A ManagedCache of ``cap`` unit-sized entries."""
    return ManagedCache(StorageTier(Environment(), DRAM, 64), cap, victim_chooser)


def demand_access(cache, key) -> bool:
    """Serve ``key`` on demand: a hit bumps it, a miss fetches it in."""
    if cache.ready(key):
        cache.touch(key)
        return True
    cache.begin_fetch(key, 1)
    cache.commit_fetch(key)
    return False


@given(trace=cache_traces, cap=st.integers(1, 8))
def test_lru_capacity_and_inclusion(trace, cap):
    c = demand_cache(cap)
    for k in trace:
        demand_access(c, k)
        assert c.used <= cap
        assert c.ready(k)  # just-accessed key is always resident


@given(trace=cache_traces, cap=st.integers(1, 8))
def test_farthest_next_use_dominates_lru(trace, cap):
    pos = 0

    def next_use(key):
        return trace.index(key, pos + 1) if key in trace[pos + 1 :] else len(trace)

    belady = demand_cache(cap, lambda c: max(c.resident_keys(), key=next_use))
    lru = demand_cache(cap)
    bel_hits = lru_hits = 0
    for pos, k in enumerate(trace):
        bel_hits += demand_access(belady, k)
        lru_hits += demand_access(lru, k)
    assert bel_hits >= lru_hits


@given(trace=cache_traces, cap=st.integers(1, 8))
def test_bigger_lru_never_hurts(trace, cap):
    small = demand_cache(cap)
    large = demand_cache(cap + 4)
    small_hits = sum(demand_access(small, k) for k in trace)
    large_hits = sum(demand_access(large, k) for k in trace)
    assert large_hits >= small_hits  # LRU is a stack algorithm


# ------------------------------------------------------------------ hierarchy
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 2), st.booleans()),
        max_size=60,
    )
)
def test_hierarchy_invariants_under_random_ops(ops):
    env = Environment()
    tiers = [
        StorageTier(env, DRAM, 4 * MB),
        StorageTier(env, NVME, 6 * MB),
    ]
    h = StorageHierarchy(tiers, StorageTier(env, PFS_DISK, 1e15, name="PFS"))
    for idx, tier_i, evict in ops:
        key = SegmentKey("f", idx)
        if evict:
            h.evict(key)
        else:
            try:
                h.place(key, MB, tiers[tier_i % 2])
            except TierFullError:
                pass
        h.check_invariants()
    assert all(t.used <= t.capacity for t in tiers)


# ----------------------------------------------------------------------- DHM
@given(
    shards=st.integers(1, 8),
    keys=st.lists(st.tuples(st.text(max_size=8), st.integers(0, 100)), max_size=60),
)
def test_partitioner_total_and_stable(shards, keys):
    p = KeyPartitioner(shards, virtual_nodes=16)
    for key in keys:
        s = p.shard_of(key)
        assert 0 <= s < shards
        assert p.shard_of(key) == s  # stable on repeat


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 10), st.sampled_from(["put", "delete", "update"])),
        max_size=80,
    ),
    shards=st.integers(1, 5),
)
def test_dhm_matches_plain_dict(ops, shards):
    m = DistributedHashMap(shards=shards)
    ref: dict = {}
    for key, op in ops:
        if op == "put":
            m.put(key, key * 2)
            ref[key] = key * 2
        elif op == "delete":
            assert m.delete(key) == (key in ref)
            ref.pop(key, None)
        else:
            m.update(key, lambda v: (v or 0) + 1)
            ref[key] = ref.get(key, 0) + 1
    assert m.snapshot() == ref
    assert len(m) == len(ref)


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 10), st.sampled_from(["put", "delete", "checkpoint"])),
        max_size=60,
    )
)
def test_wal_recovery_matches_live_state(ops):
    wal = WriteAheadLog()
    live: dict = {}
    for key, op in ops:
        if op == "put":
            wal.log_put(key, str(key))
            live[key] = str(key)
        elif op == "delete":
            wal.log_delete(key)
            live.pop(key, None)
        else:
            wal.checkpoint(live)
    assert wal.recover() == live


# ----------------------------------------------------------------- DES kernel
@given(delays=st.lists(st.floats(0.001, 10, allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=30)
def test_des_completion_order_matches_sorted_delays(delays):
    env = Environment()
    finished = []

    def body(env, i, d):
        yield env.timeout(d)
        finished.append(i)

    for i, d in enumerate(delays):
        env.process(body(env, i, d))
    env.run()
    expected = [i for i, _d in sorted(enumerate(delays), key=lambda kv: (kv[1], kv[0]))]
    assert finished == expected
    assert env.now == pytest.approx(max(delays))
