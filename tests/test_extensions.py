"""Tests for the extension features: trace import/export."""

import pytest

from repro.prefetchers.none import NoPrefetcher
from repro.runtime.cluster import ClusterSpec, SimulatedCluster
from repro.runtime.runner import WorkflowRunner
from repro.workloads.io_traces import (
    workload_from_json,
    workload_from_trace_rows,
    workload_to_json,
)
from repro.workloads.synthetic import partitioned_sequential_workload

MB = 1 << 20


# -------------------------------------------------------------------- traces
def test_workload_json_round_trip():
    wl = partitioned_sequential_workload(processes=3, steps=2, bytes_per_proc_step=2 * MB)
    back = workload_from_json(workload_to_json(wl))
    assert back.name == wl.name
    assert back.num_processes == wl.num_processes
    assert back.total_bytes == wl.total_bytes
    assert [f.file_id for f in back.files] == [f.file_id for f in wl.files]
    for p, q in zip(wl.processes, back.processes):
        assert p.steps == q.steps
        assert p.start_delay == q.start_delay


def test_trace_rows_group_by_gap():
    rows = [
        (0, "app", 0.00, "/f", 0, MB),
        (0, "app", 0.01, "/f", MB, MB),  # same step (gap < 0.05)
        (0, "app", 0.50, "/f", 2 * MB, MB),  # new step, compute = 0.49
        (1, "app", 0.00, "/f", 4 * MB, MB),
    ]
    wl = workload_from_trace_rows(rows)
    p0 = next(p for p in wl.processes if p.pid == 0)
    assert len(p0.steps) == 2
    assert len(p0.steps[0].reads) == 2
    assert p0.steps[1].compute_time == pytest.approx(0.49)
    # file extent inferred from the largest access
    assert wl.files[0].size == 5 * MB


def test_trace_rows_validation():
    with pytest.raises(ValueError):
        workload_from_trace_rows([])
    with pytest.raises(ValueError):
        workload_from_trace_rows([(0, "a", 0.0, "/f", -1, MB)])


def test_trace_replay_runs_end_to_end():
    rows = [
        (pid, "replay", 0.1 * step, "/data", (pid * 4 + step) * MB, MB)
        for pid in range(4)
        for step in range(3)
    ]
    wl = workload_from_trace_rows(rows)
    result = WorkflowRunner(
        SimulatedCluster(ClusterSpec().scaled_for(4)), wl, NoPrefetcher()
    ).run()
    assert result.hits + result.misses == 12
