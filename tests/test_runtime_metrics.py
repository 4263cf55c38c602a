"""Unit tests for the runner, cluster builder and metrics."""

import pytest

from repro.diagnosis.provenance import EV_READ
from repro.experiments.common import averaged_row
from repro.metrics.collector import MetricsCollector, RunResult
from repro.metrics.report import format_run_results, format_table
from repro.prefetchers.none import NoPrefetcher
from repro.runtime.cluster import ClusterSpec, SimulatedCluster, TierSpec
from repro.runtime.runner import WorkflowRunner, run_workload
from repro.storage.devices import DRAM, NVME
from repro.telemetry import Telemetry
from repro.workloads.spec import AppSpec, FileDecl, ProcessSpec, ReadOp, StepSpec, WorkloadSpec

MB = 1 << 20


def simple_workload(procs=2, app="a", deps=None, compute=0.01):
    apps = [AppSpec(app, depends_on=tuple(deps or ()))]
    if deps:
        apps = [AppSpec(d) for d in deps] + apps
    specs = []
    pid = 0
    for d in deps or ():
        specs.append(
            ProcessSpec(pid=pid, app=d, steps=(StepSpec(compute, (ReadOp("/f", 0, MB),)),))
        )
        pid += 1
    for _ in range(procs):
        specs.append(
            ProcessSpec(
                pid=pid,
                app=app,
                steps=(StepSpec(compute, (ReadOp("/f", pid * MB, MB),)),),
            )
        )
        pid += 1
    return WorkloadSpec("simple", [FileDecl("/f", 64 * MB)], specs, apps=apps)


# ------------------------------------------------------------------ cluster
def test_cluster_builds_hierarchy_and_context():
    cluster = SimulatedCluster(ClusterSpec().scaled_for(80))
    assert cluster.topology.compute_nodes == 2
    names = [t.name for t in cluster.hierarchy.tiers]
    assert names == ["RAM", "NVMe", "BurstBuffer"]
    assert cluster.hierarchy.backing.name == "PFS"
    ctx = cluster.context()
    assert ctx.env is cluster.env
    assert ctx.origin_tier("/x" if False else cluster.fs.create("/x", MB)).name == "PFS"


def test_cluster_local_tiers_scale_with_nodes():
    small = SimulatedCluster(ClusterSpec().scaled_for(40))
    large = SimulatedCluster(ClusterSpec().scaled_for(400))
    assert (
        large.hierarchy.by_name("RAM").pipe.channels
        > small.hierarchy.by_name("RAM").pipe.channels
    )


def test_context_hit_definition_respects_origin():
    cluster = SimulatedCluster(ClusterSpec().scaled_for(4))
    ctx = cluster.context()
    ctx.fs.create("/pfs-file", MB)
    ctx.fs.create("/bb-file", MB, origin="BurstBuffer")
    ram = ctx.hierarchy.by_name("RAM")
    bb = ctx.hierarchy.by_name("BurstBuffer")
    assert ctx.is_hit("/pfs-file", ram)
    assert ctx.is_hit("/pfs-file", bb)  # BB beats PFS origin
    assert ctx.is_hit("/bb-file", ram)
    assert not ctx.is_hit("/bb-file", bb)  # serving from its own origin


# ------------------------------------------------------------------- runner
def test_runner_executes_all_reads():
    wl = simple_workload(procs=3)
    result = run_workload(wl, NoPrefetcher())
    assert result.hits == 0
    assert result.misses == 3
    assert result.bytes_read == 3 * MB
    assert result.end_to_end_time > 0


def test_runner_respects_app_dependencies():
    wl = simple_workload(procs=2, app="consumer", deps=["producer"], compute=0.05)
    cluster = SimulatedCluster(ClusterSpec().scaled_for(4))
    tel = Telemetry()
    runner = WorkflowRunner(cluster, wl, NoPrefetcher(), telemetry=tel)
    result = runner.run()
    # the producer's (pid 0) last read ends before any consumer read starts
    reads = [ev for ev in tel.provenance.events if ev[0] == EV_READ]
    prod_end = max(ev[1] for ev in reads if ev[7] == 0)
    cons_start = min(ev[8] for ev in reads if ev[7] != 0)
    assert prod_end < cons_start
    assert result.end_to_end_time >= 0.1  # two phases of >= 0.05 compute


def test_runner_deterministic_across_runs():
    def once():
        wl = simple_workload(procs=4)
        return run_workload(wl, NoPrefetcher()).end_to_end_time

    assert once() == once()


# ------------------------------------------------------------------ metrics
def test_collector_hit_accounting():
    m = MetricsCollector()
    m.record_read(0, "RAM", MB, 0.01, hit=True, origin_name="PFS")
    m.record_read(0, "PFS", MB, 0.05, hit=False, origin_name="PFS")
    assert m.total_reads == 2
    assert m.hit_ratio == 0.5
    # hits are keyed by serving tier, misses by the file's origin tier;
    # together they account for every read
    assert m.tier_hits == {"RAM": 1}
    assert m.tier_misses == {"PFS": 1}
    assert sum(m.tier_hits.values()) + sum(m.tier_misses.values()) == m.total_reads
    r = m.finalize("X", "w", end_to_end_time=2.0)
    assert isinstance(r, RunResult)
    assert r.hit_ratio == 0.5
    assert r.tier_misses == {"PFS": 1}
    assert r.row()["hit_ratio_%"] == 50.0


def test_averaged_row_mean_and_variance():
    rows = [
        RunResult("X", "w", end_to_end_time=t, read_time=t, hit_ratio=h,
                  hits=0, misses=0, bytes_read=0, bytes_prefetched=0)
        for t, h in ((1.0, 0.5), (3.0, 0.7))
    ]
    row = averaged_row(rows)
    assert row["time_s"] == 2.0
    assert row["time_var"] == 1.0
    assert row["hit_ratio_%"] == pytest.approx(60.0)
    assert averaged_row(rows[:1])["time_var"] == 0.0


def test_format_table_renders_all_columns():
    rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
    out = format_table(rows, title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="T")


def test_format_run_results():
    r = RunResult("X", "w", 1.5, 1.0, 0.25, 1, 3, 100, 10)
    out = format_run_results([r])
    assert "X" in out
