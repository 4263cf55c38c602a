"""Unit tests for tiers and the hierarchy (repro.storage.tier / .hierarchy)."""

import math

import pytest

from repro.sim.core import Environment
from repro.storage.devices import BURST_BUFFER, DRAM, NVME, PFS_DISK, DeviceProfile
from repro.storage.hierarchy import StorageHierarchy, TierFullError
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier

MB = 1 << 20


def build(env=None, ram_cap=4 * MB, nvme_cap=8 * MB):
    env = env or Environment()
    ram = StorageTier(env, DRAM, ram_cap)
    nvme = StorageTier(env, NVME, nvme_cap)
    bb = StorageTier(env, BURST_BUFFER, 16 * MB)
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    return env, StorageHierarchy([ram, nvme, bb], pfs)


# ---------------------------------------------------------------- devices
def test_device_scaled_multiplies_channels():
    d = DRAM.scaled(4)
    assert d.channels == DRAM.channels * 4
    assert d.bandwidth == DRAM.bandwidth


def test_device_scaled_invalid_count():
    with pytest.raises(ValueError):
        DRAM.scaled(0)


def test_device_uncontended_time():
    d = DeviceProfile("x", latency=0.5, bandwidth=100)
    assert d.uncontended_time(50) == pytest.approx(1.0)


def test_tier_speed_ordering_of_presets():
    # the latency ladder the whole reproduction depends on
    assert DRAM.latency < NVME.latency < BURST_BUFFER.latency < PFS_DISK.latency


# ------------------------------------------------------------------- tier
def test_tier_capacity_positive():
    with pytest.raises(ValueError):
        StorageTier(Environment(), DRAM, 0)


def test_tier_admit_drop_ledger():
    t = StorageTier(Environment(), DRAM, 4 * MB)
    k = SegmentKey("f", 0)
    t.admit(k, MB)
    assert t.has(k) and t.used == MB and t.free == 3 * MB
    assert t.size_of(k) == MB
    assert t.drop(k) == MB
    assert t.used == 0


def test_tier_double_admit_rejected():
    t = StorageTier(Environment(), DRAM, 4 * MB)
    k = SegmentKey("f", 0)
    t.admit(k, MB)
    with pytest.raises(ValueError):
        t.admit(k, MB)


def test_tier_over_capacity_rejected():
    t = StorageTier(Environment(), DRAM, MB)
    t.admit(SegmentKey("f", 0), MB)
    with pytest.raises(ValueError):
        t.admit(SegmentKey("f", 1), 1)


def test_tier_drop_missing_rejected():
    t = StorageTier(Environment(), DRAM, MB)
    with pytest.raises(KeyError):
        t.drop(SegmentKey("f", 0))


def test_tier_peak_used_tracks_high_water():
    t = StorageTier(Environment(), DRAM, 4 * MB)
    t.admit(SegmentKey("f", 0), 2 * MB)
    t.admit(SegmentKey("f", 1), MB)
    t.drop(SegmentKey("f", 0))
    assert t.peak_used == 3 * MB


def test_tier_read_write_take_simulated_time():
    env = Environment()
    t = StorageTier(env, DeviceProfile("d", latency=0.1, bandwidth=1000), 1e9)

    def body():
        yield from t.read(100)
        yield from t.write(100)

    env.process(body())
    env.run()
    assert env.now == pytest.approx(0.4)
    assert t.reads == 1 and t.writes == 1
    assert t.bytes_read == 100 and t.bytes_written == 100


def test_tier_score_bounds_reset():
    t = StorageTier(Environment(), DRAM, MB)
    t.min_score, t.max_score = 1.0, 2.0
    t.reset_score_bounds()
    assert t.min_score == math.inf and t.max_score == -math.inf


# -------------------------------------------------------------- hierarchy
def test_hierarchy_requires_tiers_and_unique_names():
    env = Environment()
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    with pytest.raises(ValueError):
        StorageHierarchy([], pfs)
    a = StorageTier(env, DRAM, MB, name="X")
    b = StorageTier(env, NVME, MB, name="X")
    with pytest.raises(ValueError):
        StorageHierarchy([a, b], pfs)


def test_place_locate_evict_cycle():
    env, h = build()
    k = SegmentKey("f", 0)
    ram = h.tiers[0]
    h.place(k, MB, ram)
    assert h.locate(k) is ram
    assert h.resident_tier_name(k) == ram.name
    assert h.evict(k)
    assert h.locate(k) is None
    assert not h.evict(k)


def test_place_is_exclusive_move():
    env, h = build()
    k = SegmentKey("f", 0)
    ram, nvme = h.tiers[0], h.tiers[1]
    h.place(k, MB, ram)
    h.place(k, MB, nvme)
    assert h.locate(k) is nvme
    assert not ram.has(k)
    assert h.demotions == 1
    h.place(k, MB, ram)
    assert h.promotions == 1
    h.check_invariants()


def test_place_on_full_tier_raises():
    env, h = build(ram_cap=MB)
    h.place(SegmentKey("f", 0), MB, h.tiers[0])
    with pytest.raises(TierFullError):
        h.place(SegmentKey("f", 1), MB, h.tiers[0])


def test_place_on_backing_means_evict():
    env, h = build()
    k = SegmentKey("f", 0)
    h.place(k, MB, h.tiers[0])
    h.place(k, MB, h.backing)
    assert h.locate(k) is None


def test_place_foreign_tier_rejected():
    env, h = build()
    alien = StorageTier(env, DRAM, MB, name="alien")
    with pytest.raises(ValueError):
        h.place(SegmentKey("f", 0), MB, alien)


def test_next_below_chain():
    env, h = build()
    ram, nvme, bb = h.tiers
    assert h.next_below(ram) is nvme
    assert h.next_below(nvme) is bb
    assert h.next_below(bb) is None


def test_tier_index_and_by_name():
    env, h = build()
    assert h.tier_index(h.tiers[0]) == 0
    assert h.tier_index(h.backing) == len(h.tiers)
    assert h.by_name("RAM") is h.tiers[0]
    assert h.by_name("PFS") is h.backing
    with pytest.raises(KeyError):
        h.by_name("nope")


def test_invalidate_file_evicts_only_that_file():
    env, h = build()
    h.place(SegmentKey("a", 0), MB, h.tiers[0])
    h.place(SegmentKey("a", 1), MB, h.tiers[1])
    h.place(SegmentKey("b", 0), MB, h.tiers[0])
    assert h.invalidate_file("a") == 2
    assert h.locate(SegmentKey("b", 0)) is h.tiers[0]
    h.check_invariants()


def test_check_invariants_catches_ledger_corruption():
    env, h = build()
    k = SegmentKey("f", 0)
    h.place(k, MB, h.tiers[0])
    # corrupt: admit directly behind the hierarchy's back
    h.tiers[1].admit(k, MB)
    with pytest.raises(AssertionError):
        h.check_invariants()


def test_resident_segments_snapshot():
    env, h = build()
    h.place(SegmentKey("f", 0), MB, h.tiers[0])
    snap = h.resident_segments()
    assert snap == {SegmentKey("f", 0): h.tiers[0]}


def test_evictions_record_the_cause_their_caller_passes():
    from repro.diagnosis.provenance import EV_EVICT, ProvenanceLog

    env, h = build()
    h.prov = prov = ProvenanceLog()
    for i in range(3):
        h.place(SegmentKey("a", i), MB, h.tiers[0])
    h.place(SegmentKey("b", 0), MB, h.tiers[1])
    h.evict(SegmentKey("a", 0), cause="rejected")
    h.evict(SegmentKey("a", 1))
    h.invalidate_file("a")
    h.evict_all([SegmentKey("b", 0)], cause="move-failed")
    causes = [(prov.keys[e[2]], e[3], e[4]) for e in prov.events if e[0] == EV_EVICT]
    assert causes == [
        (SegmentKey("a", 0), "RAM", "rejected"),
        (SegmentKey("a", 1), "RAM", "evicted"),
        (SegmentKey("a", 2), "RAM", "invalidated"),
        (SegmentKey("b", 0), "NVMe", "move-failed"),
    ]
