"""Unit tests for the baseline prefetchers and their shared cache."""

import pytest

from repro.prefetchers.appcentric import AppCentricPrefetcher, _StreamDetector
from repro.prefetchers.inmemory import InMemoryNaivePrefetcher, InMemoryOptimalPrefetcher
from repro.prefetchers.knowac import KnowAcPrefetcher
from repro.prefetchers.none import NoPrefetcher
from repro.prefetchers.parallel import ParallelPrefetcher
from repro.prefetchers.serial import SerialPrefetcher
from repro.prefetchers.stacker import StackerPrefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.cluster import ClusterSpec, SimulatedCluster
from repro.sim.core import Environment
from repro.storage.devices import DRAM
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier
from repro.workloads.spec import FileDecl, ProcessSpec, ReadOp, StepSpec, WorkloadSpec

MB = 1 << 20


def make_ctx(ranks=4):
    cluster = SimulatedCluster(ClusterSpec().scaled_for(ranks))
    ctx = cluster.context()
    ctx.fs.create("/f", 32 * MB)
    ctx.fs.create("/staged", 8 * MB, origin="BurstBuffer")
    return cluster, ctx


def tiny_workload(procs=2, steps=2, reads_per_step=2):
    ops = []
    specs = []
    for p in range(procs):
        psteps = []
        for s in range(steps):
            reads = tuple(
                ReadOp("/f", ((p * steps + s) * reads_per_step + r) * MB, MB)
                for r in range(reads_per_step)
            )
            psteps.append(StepSpec(compute_time=0.01, reads=reads))
        specs.append(ProcessSpec(pid=p, app="a", steps=tuple(psteps)))
    return WorkloadSpec("tiny", [FileDecl("/f", 32 * MB)], specs)


# ------------------------------------------------------------- ManagedCache
def test_managed_cache_budget_positive():
    env = Environment()
    tier = StorageTier(env, DRAM, 4 * MB)
    with pytest.raises(ValueError):
        ManagedCache(tier, 0)


def test_managed_cache_fetch_protocol():
    env = Environment()
    cache = ManagedCache(StorageTier(env, DRAM, 4 * MB), 2 * MB)
    k = SegmentKey("/f", 0)
    assert cache.begin_fetch(k, MB)
    assert cache.pending(k) and not cache.ready(k)
    assert not cache.begin_fetch(k, MB)  # already in flight
    cache.commit_fetch(k)
    assert cache.ready(k)
    assert cache.used == MB and cache.peak_used == MB


def test_managed_cache_abort_releases_reservation():
    env = Environment()
    cache = ManagedCache(StorageTier(env, DRAM, 4 * MB), MB)
    k = SegmentKey("/f", 0)
    cache.begin_fetch(k, MB)
    cache.abort_fetch(k)
    assert cache.free == MB
    assert not cache.known(k)


def test_managed_cache_lru_eviction_makes_room():
    env = Environment()
    cache = ManagedCache(StorageTier(env, DRAM, 16 * MB), 2 * MB)
    for i in range(2):
        cache.begin_fetch(SegmentKey("/f", i), MB)
        cache.commit_fetch(SegmentKey("/f", i))
    cache.touch(SegmentKey("/f", 0))  # 1 is now coldest
    assert cache.begin_fetch(SegmentKey("/f", 2), MB)
    assert not cache.ready(SegmentKey("/f", 1))
    assert cache.evictions == 1


def test_managed_cache_refuses_oversized_entry():
    env = Environment()
    cache = ManagedCache(StorageTier(env, DRAM, 16 * MB), MB)
    assert not cache.begin_fetch(SegmentKey("/f", 0), 2 * MB)


def test_managed_cache_custom_victim_chooser():
    env = Environment()
    chosen = SegmentKey("/f", 1)
    cache = ManagedCache(
        StorageTier(env, DRAM, 16 * MB), 2 * MB, victim_chooser=lambda c: chosen
    )
    for i in range(2):
        cache.begin_fetch(SegmentKey("/f", i), MB)
        cache.commit_fetch(SegmentKey("/f", i))
    cache.begin_fetch(SegmentKey("/f", 5), MB)
    assert not cache.ready(chosen)
    assert cache.ready(SegmentKey("/f", 0))


# ---------------------------------------------------------------- baselines
def test_none_prefetcher_always_plans_origin():
    cluster, ctx = make_ctx()
    pf = NoPrefetcher()
    pf.attach(ctx)
    plan = pf.plan_read(0, 0, ctx.fs.segment_id("/f", 0))
    assert plan.tier is ctx.hierarchy.backing
    plan = pf.plan_read(0, 0, ctx.fs.segment_id("/staged", 0))
    assert plan.tier.name == "BurstBuffer"


def test_serial_prefetcher_fetches_ahead_and_hits():
    cluster, ctx = make_ctx()
    pf = SerialPrefetcher(window=4)
    pf.attach(ctx)
    pf.on_access(0, 0, "/f", 0, MB)
    ctx.env.run(until=2.0)
    assert pf.bytes_prefetched > 0
    plan = pf.plan_read(0, 0, ctx.fs.segment_id("/f", 1))
    assert plan.tier.name == "RAM"
    pf.detach()


def test_serial_skips_stale_entries():
    cluster, ctx = make_ctx()
    pf = SerialPrefetcher(window=4)
    pf.attach(ctx)
    pf.on_access(0, 0, "/f", 0, MB)  # queue 1..4
    pf.on_access(0, 0, "/f", 4 * MB, MB)  # reader already at 4
    ctx.env.run(until=2.0)
    assert pf.stale_skipped > 0 or pf.prefetch_ops > 0
    pf.detach()


def test_parallel_has_more_workers_than_serial():
    assert ParallelPrefetcher(threads=4).workers == 4
    assert SerialPrefetcher().workers == 1
    with pytest.raises(ValueError):
        ParallelPrefetcher(threads=0)


def test_inmemory_optimal_uses_trace_knowledge():
    cluster, ctx = make_ctx()
    wl = tiny_workload()
    wl.materialize(ctx.fs)
    pf = InMemoryOptimalPrefetcher(window=2)
    pf.attach(ctx)
    pf.on_workload(wl)
    # rank 0 reads offsets 0,1 then 2,3 (MB); after its first access the
    # prefetcher should be fetching ahead along the trace
    pf.on_access(0, 0, "/f", 0, MB)
    ctx.env.run(until=2.0)
    assert pf.bytes_prefetched > 0
    assert pf.plan_read(0, 0, ctx.fs.segment_id("/f", 1)).tier.name == "RAM"


def test_inmemory_naive_shared_cache_pollution_counted():
    cluster, ctx = make_ctx()
    pf = InMemoryNaivePrefetcher(window=4, ram_budget=2 * MB)
    pf.attach(ctx)
    pf.on_access(0, 0, "/f", 0, MB)
    pf.on_access(1, 0, "/f", 8 * MB, MB)
    ctx.env.run(until=2.0)
    assert pf.cache.fetches + len(pf.cache._in_flight) >= 2
    # budget of 2 MB with 8 requested segments → someone got evicted or refused
    assert pf.cache.used <= 2 * MB


def test_appcentric_detector_needs_three_points():
    d = _StreamDetector()
    d.observe(0)
    d.observe(MB)
    assert d.predict_stride() is None
    d.observe(2 * MB)
    assert d.predict_stride() == MB


def test_appcentric_detector_rejects_irregular():
    d = _StreamDetector()
    for off in (0, 7 * MB, 3 * MB, 11 * MB):
        d.observe(off)
    assert d.predict_stride() is None


def test_appcentric_partitions_per_app():
    cluster, ctx = make_ctx()
    wl = tiny_workload()
    wl.materialize(ctx.fs)
    pf = AppCentricPrefetcher()
    pf.attach(ctx)
    pf.on_workload(wl)
    assert set(pf._partitions) == {"a"}
    # demand caching: a read lands in the app's partition
    pf.on_access(0, 0, "/f", 0, MB)
    ctx.env.run(until=1.0)
    assert pf.plan_read(0, 0, ctx.fs.segment_id("/f", 0)).tier.name in ("RAM", "NVMe")


def test_stacker_learns_transitions_before_predicting():
    cluster, ctx = make_ctx()
    pf = StackerPrefetcher(window=1)
    pf.attach(ctx)
    wl = tiny_workload()
    pf.on_workload(wl)
    # first pass teaches 0->1; no prediction material yet for fresh keys
    pf.on_access(0, 0, "/f", 0, MB)
    assert pf.predictions == 0 and pf.cold_misses == 1
    pf.on_access(0, 0, "/f", MB, MB)
    # revisit 0: the 0->1 transition now predicts 1
    pf.on_access(0, 0, "/f", 0, MB)
    assert pf.predictions >= 1
    ctx.env.run(until=1.0)


def test_knowac_charges_profile_cost():
    cluster, ctx = make_ctx()
    wl = tiny_workload()
    wl.materialize(ctx.fs)
    pf = KnowAcPrefetcher()
    pf.attach(ctx)
    pf.on_workload(wl)
    assert pf.profile_cost() > 0
    assert NoPrefetcher().profile_cost() == 0.0


def test_knowac_prefetches_exact_future():
    cluster, ctx = make_ctx()
    wl = tiny_workload(procs=1, steps=2, reads_per_step=2)
    wl.materialize(ctx.fs)
    pf = KnowAcPrefetcher(window=4)
    pf.attach(ctx)
    pf.on_workload(wl)
    pf.on_access(0, 0, "/f", 0, MB)
    ctx.env.run(until=2.0)
    # the next trace entries (offsets 1,2,3 MB) were staged
    assert pf.plan_read(0, 0, ctx.fs.segment_id("/f", 1)).tier.name == "RAM"
