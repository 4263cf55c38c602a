"""Edge cases and failure injection across modules."""

import pytest

from repro.core.config import HFetchConfig
from repro.core.prefetcher import HFetchPrefetcher
from repro.dhm.hashmap import DistributedHashMap
from repro.dhm.wal import WriteAheadLog
from repro.prefetchers.none import NoPrefetcher
from repro.runtime.cluster import ClusterSpec, SimulatedCluster, TierSpec
from repro.runtime.context import ReadPlan
from repro.runtime.runner import WorkflowRunner, run_workload
from repro.sim.core import Environment
from repro.storage.devices import DRAM, NVME
from repro.workloads.spec import FileDecl, ProcessSpec, ReadOp, StepSpec, WorkloadSpec

MB = 1 << 20


# ------------------------------------------------------------ runner corners
def test_workload_with_no_reads_completes():
    wl = WorkloadSpec(
        "compute-only",
        [],
        [ProcessSpec(pid=0, app="a", steps=(StepSpec(0.5, ()),))],
    )
    result = run_workload(wl, NoPrefetcher())
    assert result.hits == result.misses == 0
    assert result.end_to_end_time == pytest.approx(0.5)


def test_read_past_eof_is_skipped_not_crashed():
    wl = WorkloadSpec(
        "eof",
        [FileDecl("/f", 2 * MB)],
        [
            ProcessSpec(
                pid=0,
                app="a",
                steps=(StepSpec(0.0, (ReadOp("/f", 10 * MB, MB),)),),
            )
        ],
    )
    result = run_workload(wl, NoPrefetcher())
    assert result.hits + result.misses == 0


def test_single_process_workload():
    wl = WorkloadSpec(
        "solo",
        [FileDecl("/f", 4 * MB)],
        [
            ProcessSpec(
                pid=0,
                app="a",
                steps=(StepSpec(0.01, (ReadOp("/f", 0, 4 * MB),)),),
            )
        ],
    )
    result = run_workload(wl, HFetchPrefetcher(HFetchConfig(engine_interval=0.01)))
    assert result.hits + result.misses == 4


def test_hfetch_detach_stops_background_processes():
    wl = WorkloadSpec(
        "stop",
        [FileDecl("/f", 4 * MB)],
        [ProcessSpec(pid=0, app="a", steps=(StepSpec(0.01, (ReadOp("/f", 0, MB),)),))],
    )
    pf = HFetchPrefetcher(HFetchConfig(engine_interval=0.01))
    cluster = SimulatedCluster(ClusterSpec().scaled_for(1))
    WorkflowRunner(cluster, wl, pf).run()
    assert not pf.server.monitor.running
    assert not pf.server.started


def test_read_plan_defaults():
    env = Environment()
    from repro.storage.tier import StorageTier

    tier = StorageTier(env, DRAM, MB)
    plan = ReadPlan(tier=tier)
    assert plan.metadata_cost == 0.0 and not plan.cross_node


# ----------------------------------------------------------- auditor shards
def test_hfetch_with_many_dhm_shards():
    wl = WorkloadSpec(
        "shards",
        [FileDecl("/f", 8 * MB)],
        [
            ProcessSpec(
                pid=p,
                app="a",
                steps=(StepSpec(0.01, (ReadOp("/f", p * 2 * MB, 2 * MB),)),),
            )
            for p in range(4)
        ],
    )
    pf = HFetchPrefetcher(HFetchConfig(engine_interval=0.01), dhm_shards=8)
    result = run_workload(wl, pf)
    assert result.hits + result.misses == 8
    # cross-shard traffic was modelled
    assert pf.server.stats_map.remote_ops + pf.server.stats_map.local_ops > 0


# ----------------------------------------------------------- WAL corners
def test_wal_empty_recovery():
    assert WriteAheadLog().recover() == {}


def test_wal_checkpoint_then_crash_midway(tmp_path):
    path = tmp_path / "c.wal"
    with WriteAheadLog(path) as wal:
        wal.log_put("a", 1)
        wal.checkpoint({"a": 1})
        wal.log_put("b", 2)
        wal.flush()
    # torn final record
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    replay = WriteAheadLog(path)
    state = replay.recover()
    replay.close()
    assert state["a"] == 1  # checkpoint survives the torn tail


def test_dhm_update_with_exception_does_not_corrupt():
    m = DistributedHashMap(shards=2)
    m.put("k", 5)
    with pytest.raises(RuntimeError):
        def boom(_v):
            raise RuntimeError("bad updater")
        m.update("k", boom)
    assert m.get("k") == 5  # original value intact


# ----------------------------------------------------------- device corners
def test_zero_byte_transfer_costs_only_latency():
    from repro.sim.pipes import BandwidthPipe

    env = Environment()
    pipe = BandwidthPipe(env, latency=0.25, bandwidth=100)
    env.process(pipe.transfer(0))
    env.run()
    assert env.now == pytest.approx(0.25)


def test_prefetch_priority_yields_to_demand():
    from repro.sim.pipes import BandwidthPipe

    env = Environment()
    pipe = BandwidthPipe(env, latency=0.0, bandwidth=100, channels=1)
    done = []

    def demand(delay, name):
        yield env.timeout(delay)
        yield from pipe.transfer(100)  # 1s
        done.append(name)

    def prefetch(delay, name):
        yield env.timeout(delay)
        yield from pipe.transfer(100, priority=BandwidthPipe.PREFETCH)
        done.append(name)

    env.process(demand(0.0, "d1"))
    env.process(prefetch(0.1, "p1"))  # queued first...
    env.process(prefetch(0.2, "p2"))
    env.process(demand(0.3, "d2"))  # ...but demand overtakes
    env.run()
    assert done == ["d1", "d2", "p1", "p2"]
