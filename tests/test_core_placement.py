"""Unit tests for Algorithm 1 and its triggers (repro.core.placement)."""

import pytest

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.io_clients import IOClientPool
from repro.core.placement import PlacementEngine
from repro.events.types import EventType, FileEvent
from repro.sim.core import Environment
from repro.storage.devices import BURST_BUFFER, DRAM, NVME, PFS_DISK
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier

MB = 1 << 20


def build(ram_cap=2 * MB, nvme_cap=4 * MB, bb_cap=8 * MB, file_mb=32, **cfg):
    env = Environment()
    config = HFetchConfig(
        engine_interval=cfg.pop("engine_interval", 1000.0),
        engine_update_threshold=cfg.pop("engine_update_threshold", 1 << 30),
        **cfg,
    )
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", file_mb * MB)
    ram = StorageTier(env, DRAM, ram_cap)
    nvme = StorageTier(env, NVME, nvme_cap)
    bb = StorageTier(env, BURST_BUFFER, bb_cap)
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    hier = StorageHierarchy([ram, nvme, bb], pfs)
    auditor = FileSegmentAuditor(config, fs)
    auditor.start_epoch("/f")
    io = IOClientPool(env, hier)
    io.start()
    engine = PlacementEngine(env, config, hier, auditor, io)
    return env, engine, auditor, hier, io


def touch(auditor, index, t, pid=0, times=1):
    for i in range(times):
        auditor.on_event(
            FileEvent(EventType.READ, "/f", offset=index * MB, size=MB, timestamp=t + i * 0.001, pid=pid)
        )


def run_pass(env, engine):
    env.process(engine.run_pass())
    env.run()


def test_hot_segment_lands_in_top_tier():
    env, engine, auditor, hier, io = build()
    touch(auditor, 0, t=0.0, times=5)
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 0)) is hier.tiers[0]
    hier.check_invariants()


def test_score_spectrum_maps_onto_tiers():
    env, engine, auditor, hier, io = build(ram_cap=1 * MB, nvme_cap=1 * MB, bb_cap=1 * MB, lookahead_depth=0)
    touch(auditor, 0, t=0.0, times=8)  # hottest
    touch(auditor, 1, t=0.0, times=4)
    touch(auditor, 2, t=0.0, times=2)
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 0)).name == "RAM"
    assert hier.locate(SegmentKey("/f", 1)).name == "NVMe"
    assert hier.locate(SegmentKey("/f", 2)).name == "BurstBuffer"
    hier.check_invariants()


def test_hotter_newcomer_demotes_colder_resident():
    env, engine, auditor, hier, io = build(ram_cap=1 * MB, lookahead_depth=0)
    touch(auditor, 1, t=0.0, times=2)
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 1)).name == "RAM"
    # a much hotter segment arrives later
    touch(auditor, 2, t=5.0, times=8)
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 2)).name == "RAM"
    assert hier.locate(SegmentKey("/f", 1)).name == "NVMe"  # demoted, not evicted
    assert engine.segments_demoted >= 1
    hier.check_invariants()


def test_colder_newcomer_sinks_below_full_tier():
    env, engine, auditor, hier, io = build(ram_cap=1 * MB, lookahead_depth=0)
    touch(auditor, 0, t=10.0, times=8)
    run_pass(env, engine)
    touch(auditor, 1, t=10.0, times=1)  # colder than the resident
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 0)).name == "RAM"
    assert hier.locate(SegmentKey("/f", 1)).name == "NVMe"
    hier.check_invariants()


def test_epoch_filter_skips_closed_files():
    env, engine, auditor, hier, io = build()
    touch(auditor, 0, t=0.0)
    auditor.end_epoch("/f")
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 0)) is None
    assert engine.segments_placed == 0


def test_lookahead_places_successors():
    env, engine, auditor, hier, io = build(lookahead_depth=3, bb_cap=32 * MB)
    touch(auditor, 0, t=0.0, times=3)
    run_pass(env, engine)
    # spatial successors of the hot segment were placed somewhere
    placed = [hier.locate(SegmentKey("/f", i)) for i in (1, 2, 3)]
    assert all(t is not None for t in placed)
    # and the far one never outranks the near one
    idx = [hier.tier_index(t) for t in placed]
    assert idx == sorted(idx)


def test_lookahead_follows_learned_successor_over_spatial():
    env, engine, auditor, hier, io = build(lookahead_depth=1)
    # teach: 5 is always followed by 9 (repetitive jump pattern)
    for t in (0.0, 1.0, 2.0):
        touch(auditor, 5, t=t)
        touch(auditor, 9, t=t + 0.4)
    auditor.drain_dirty()
    touch(auditor, 5, t=3.0)
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 9)) is not None


def test_count_trigger_fires_engine():
    env, engine, auditor, hier, io = build(
        engine_interval=1000.0, engine_update_threshold=3
    )
    engine.start()
    touch(auditor, 0, t=0.0)
    touch(auditor, 1, t=0.0)
    touch(auditor, 2, t=0.0)
    env.run(until=1.0)
    assert engine.passes >= 1
    engine.stop()


def test_interval_trigger_fires_engine():
    env, engine, auditor, hier, io = build(
        engine_interval=0.5, engine_update_threshold=1 << 30
    )
    engine.start()
    touch(auditor, 0, t=0.0)
    env.run(until=2.0)
    assert engine.passes >= 1
    assert hier.locate(SegmentKey("/f", 0)) is not None
    engine.stop()


def test_moves_are_submitted_and_complete():
    env, engine, auditor, hier, io = build()
    touch(auditor, 0, t=0.0, times=2)
    run_pass(env, engine)
    env.run(until=env.now + 5.0)
    assert io.moves_completed >= 1
    assert io.backlog == 0


def test_in_flight_serves_from_source():
    env, engine, auditor, hier, io = build()
    touch(auditor, 0, t=0.0, times=2)
    # run the pass synchronously but do NOT let the io client finish
    proc = env.process(engine.run_pass())
    env.run(until=proc)
    key = SegmentKey("/f", 0)
    assert hier.locate(key) is not None  # ledger placed
    assert io.serving_tier_name(key) == "PFS"  # still physically at origin
    env.run(until=env.now + 5.0)
    assert io.serving_tier_name(key) == hier.locate(key).name


def test_invalidate_file_clears_engine_state():
    env, engine, auditor, hier, io = build()
    touch(auditor, 0, t=0.0, times=3)
    run_pass(env, engine)
    assert engine.invalidate_file("/f") >= 1
    assert hier.locate(SegmentKey("/f", 0)) is None


def test_demotion_hysteresis_prevents_equal_score_churn():
    env, engine, auditor, hier, io = build(
        ram_cap=1 * MB, lookahead_depth=0, demotion_hysteresis=1.25
    )
    touch(auditor, 0, t=0.0, times=3)
    run_pass(env, engine)
    # a segment with (nearly) the same score must NOT displace it
    touch(auditor, 1, t=0.003, times=3)
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 0)).name == "RAM"
    assert hier.locate(SegmentKey("/f", 1)).name == "NVMe"


def test_zero_score_segments_not_placed():
    env, engine, auditor, hier, io = build()
    # dirty entry with no stats (e.g. seeded from a heatmap of a shrunk file)
    auditor._dirty[SegmentKey("/f", 4)] = None
    run_pass(env, engine)
    assert hier.locate(SegmentKey("/f", 4)) is None


# ------------------------------------------------- placement invariants
def assert_placement_invariants(hier):
    """Each segment in at most one tier; per-tier score bounds ordered."""
    hier.check_invariants()  # exclusivity + ledger/resident agreement
    for tier in hier.tiers:
        # bounds are advisory (lazily maintained) and may be stale for an
        # empty tier, but an occupied tier must keep them ordered
        if tier.resident_count:
            assert tier.min_score <= tier.max_score


def test_invariants_hold_under_mixed_operation_sequence():
    """Drive Algorithm 1 through an adversarial mix of placements,
    demotions (via hot newcomers) and invalidations, checking the
    exclusive-cache invariant after every step."""
    env, engine, auditor, hier, io = build(
        ram_cap=2 * MB, nvme_cap=3 * MB, bb_cap=4 * MB, lookahead_depth=0
    )
    # scripted but adversarial: repeated re-heats force demotion chains,
    # invalidation drops everything mid-sequence, then the tiers refill
    sequence = [
        ("touch", 0, 6), ("pass",), ("touch", 1, 4), ("pass",),
        ("touch", 2, 8), ("touch", 3, 8), ("pass",),        # demote 0/1
        ("touch", 4, 2), ("touch", 5, 2), ("pass",),        # fill lower tiers
        ("invalidate",),
        ("touch", 6, 5), ("touch", 0, 1), ("pass",),        # refill after drop
        ("touch", 7, 9), ("touch", 8, 9), ("touch", 9, 9), ("pass",),
    ]
    for step in sequence:
        if step[0] == "touch":
            _, idx, times = step
            # stamp at the sim clock so no access is ever "in the future"
            for _ in range(times):
                touch(auditor, idx, t=env.now, times=1)
        elif step[0] == "pass":
            run_pass(env, engine)
        elif step[0] == "invalidate":
            engine.invalidate_file("/f")
            assert all(
                hier.locate(SegmentKey("/f", i)) is None for i in range(10)
            )
        assert_placement_invariants(hier)
    # the sequence must actually have exercised demotions
    assert engine.segments_demoted >= 1
    assert engine.segments_placed >= 5


def test_invariants_hold_with_demote_to_bottom_and_eviction():
    env, engine, auditor, hier, io = build(
        ram_cap=1 * MB, nvme_cap=1 * MB, bb_cap=1 * MB, lookahead_depth=0
    )
    # four hot waves through a 3-slot hierarchy: someone falls off the end
    for wave, idx in enumerate(range(4)):
        for _ in range(4 + wave):
            touch(auditor, idx, t=env.now, times=1)
        run_pass(env, engine)
        assert_placement_invariants(hier)
    resident = [hier.locate(SegmentKey("/f", i)) for i in range(4)]
    assert sum(1 for r in resident if r is not None) <= 3


# ------------------------------------------------- pruned lookahead walk
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.stats import SegmentStats  # noqa: E402

# /f has 32 segments (spatial chains run to its end), /g has 3, /x does
# not exist (no stats and no spatial fallback: a dead end)
WALK_KEYS = (
    [SegmentKey("/f", i) for i in (0, 1, 2, 3, 4, 5, 30, 31)]
    + [SegmentKey("/g", i) for i in range(3)]
    + [SegmentKey("/x", 0), SegmentKey("/x", 1)]
)


def reference_candidates(auditor, config, dirty, scores):
    """The unpruned walk: every dirty segment walks its full chain."""
    candidates = {}
    for key, score in zip(dirty, scores):
        if score <= 0.0:
            continue
        if score > candidates.get(key, 0.0):
            candidates[key] = score
        current, value = key, score
        for _hop in range(config.lookahead_depth):
            value *= config.lookahead_discount
            stats = auditor.stats_map.get(current)
            nxt = stats.most_likely_successor() if stats is not None else None
            if nxt is None:
                if not auditor.fs.exists(current.file_id):
                    break
                if current.index + 1 >= auditor.fs.get(current.file_id).num_segments:
                    break
                nxt = SegmentKey(current.file_id, current.index + 1)
            if value > candidates.get(nxt, 0.0):
                candidates[nxt] = value
            current = nxt
    return candidates


@settings(max_examples=250, deadline=None)
@given(
    # key -> learned successor (None: a record with no successor yet);
    # keys may point at themselves or close cycles
    graph=st.dictionaries(
        st.sampled_from(WALK_KEYS), st.none() | st.sampled_from(WALK_KEYS)
    ),
    dirty=st.lists(
        st.tuples(
            st.sampled_from(WALK_KEYS),
            st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0),
        ),
        max_size=12,
    ),
    depth=st.sampled_from([0, 1, 4, 16]),
    discount=st.sampled_from([0.5, 0.85, 1.0]),
)
def test_pruned_walk_matches_the_full_walk(graph, dirty, depth, discount):
    env, engine, auditor, hier, io = build(
        lookahead_depth=depth, lookahead_discount=discount
    )
    auditor.fs.create("/g", 3 * MB)
    for key, successor in graph.items():
        stats = SegmentStats(key=key, nbytes=MB)
        stats.best_successor = successor
        auditor.stats_map.put(key, stats)
    keys = [k for k, _ in dirty]
    scores = [s for _, s in dirty]
    got = engine._candidates(keys, scores)
    want = reference_candidates(auditor, engine.config, keys, scores)
    assert list(got.items()) == list(want.items())


def test_pruned_walk_skips_repeated_chains():
    env, engine, auditor, hier, io = build(lookahead_depth=16)
    calls = []
    stats_of = auditor.stats_of
    auditor.stats_of = lambda key: calls.append(key) or stats_of(key)
    keys = [SegmentKey("/f", 1), SegmentKey("/f", 0)]
    # /f/0's walk reaches /f/1 with a lower value and fewer hops left
    # than /f/1's own walk expanded it with, so it stops there
    candidates = engine._candidates(keys, [1.0, 1.0])
    assert calls == [SegmentKey("/f", i) for i in range(1, 17)] + [SegmentKey("/f", 0)]
    assert candidates == reference_candidates(auditor, engine.config, keys, [1.0, 1.0])
