"""Tests for the extension features: multi-version heatmaps and trace
import/export."""

import numpy as np
import pytest

from repro.core.heatmap import FileHeatmap, HeatmapStore, heatmap_similarity
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


# ----------------------------------------------------- multi-version heatmaps
def test_similarity_identical_is_one():
    a = FileHeatmap("f", np.array([1.0, 2.0, 0.0]))
    assert heatmap_similarity(a, a) == pytest.approx(1.0)


def test_similarity_orthogonal_is_zero():
    a = FileHeatmap("f", np.array([1.0, 0.0]))
    b = FileHeatmap("f", np.array([0.0, 1.0]))
    assert heatmap_similarity(a, b) == pytest.approx(0.0)


def test_similarity_handles_length_mismatch_and_flat():
    a = FileHeatmap("f", np.array([1.0]))
    b = FileHeatmap("f", np.array([1.0, 0.0, 0.0]))
    assert heatmap_similarity(a, b) == pytest.approx(1.0)
    flat = FileHeatmap("f", np.array([0.0, 0.0]))
    assert heatmap_similarity(a, flat) == 0.0


def test_similarity_rejects_different_files():
    with pytest.raises(ValueError):
        heatmap_similarity(
            FileHeatmap("a", np.array([1.0])), FileHeatmap("b", np.array([1.0]))
        )


def test_store_retains_versions_up_to_limit():
    store = HeatmapStore(max_versions=2)
    for i in range(3):
        store.save(FileHeatmap("f", np.array([float(i + 1)])))
    versions = store.versions("f")
    assert len(versions) == 2
    assert versions[0].scores[0] == 2.0  # oldest retained
    assert versions[1].scores[0] == 3.0


def test_store_best_fit_picks_matching_epoch():
    store = HeatmapStore(max_versions=4)
    # epoch A: hot at the front; epoch B: hot at the back
    front = FileHeatmap("f", np.array([5.0, 4.0, 0.0, 0.0]))
    back = FileHeatmap("f", np.array([0.0, 0.0, 4.0, 5.0]))
    store.save(front)
    store.save(back)
    observed = FileHeatmap("f", np.array([1.0, 0.5, 0.0, 0.0]))  # front-ish
    assert store.best_fit(observed) is front
    observed2 = FileHeatmap("f", np.array([0.0, 0.0, 0.7, 1.0]))
    assert store.best_fit(observed2) is back


def test_store_best_fit_falls_back_to_merged():
    store = HeatmapStore()
    store.save(FileHeatmap("f", np.array([1.0, 0.0])))
    orthogonal = FileHeatmap("f", np.array([0.0, 1.0]))
    assert store.best_fit(orthogonal) is not None  # merged latest


def test_store_version_limit_validation():
    with pytest.raises(ValueError):
        HeatmapStore(max_versions=0)


def test_store_delete_drops_versions():
    store = HeatmapStore(max_versions=3)
    store.save(FileHeatmap("f", np.array([1.0])))
    store.delete("f")
    assert store.versions("f") == []


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
