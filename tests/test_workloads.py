"""Unit tests for workload specs, patterns and builders."""

import pytest

from repro.sim.rng import SeededStream
from repro.storage.files import FileSystemModel
from repro.workloads.montage import montage_workload
from repro.workloads.patterns import (
    AccessPattern,
    irregular_pattern,
    pattern_generator,
    repetitive_pattern,
    sequential_pattern,
    strided_pattern,
)
from repro.workloads.spec import (
    AppSpec,
    FileDecl,
    ProcessSpec,
    ReadOp,
    StepSpec,
    WorkloadSpec,
)
from repro.workloads.synthetic import (
    burst_workload,
    multi_app_pattern_workload,
    partitioned_sequential_workload,
)
from repro.workloads.wrf import wrf_workload

MB = 1 << 20


def all_ops(steps):
    return [op for step in steps for op in step]


# ------------------------------------------------------------------ patterns
def test_sequential_walks_forward():
    steps = sequential_pattern("f", 16 * MB, steps=2, bytes_per_step=2 * MB, request_size=MB)
    offsets = [op.offset for op in all_ops(steps)]
    assert offsets == [0, MB, 2 * MB, 3 * MB]


def test_sequential_wraps_at_eof():
    steps = sequential_pattern("f", 2 * MB, steps=1, bytes_per_step=3 * MB, request_size=MB)
    offsets = [op.offset for op in all_ops(steps)]
    assert offsets == [0, MB, 0]


def test_strided_uses_stride():
    steps = strided_pattern("f", 32 * MB, 1, 2 * MB, MB, stride=4 * MB)
    offsets = [op.offset for op in all_ops(steps)]
    assert offsets == [0, 4 * MB]


def test_repetitive_repeats_identically():
    rng = SeededStream(1, "t")
    steps = repetitive_pattern("f", 16 * MB, steps=3, bytes_per_step=2 * MB, request_size=MB, rng=rng)
    assert steps[0] == steps[1] == steps[2]


def test_irregular_differs_across_steps():
    rng = SeededStream(1, "t")
    steps = irregular_pattern("f", 64 * MB, steps=2, bytes_per_step=8 * MB, request_size=MB, rng=rng)
    assert steps[0] != steps[1]


@pytest.mark.parametrize("pattern", list(AccessPattern))
def test_all_patterns_stay_in_bounds(pattern):
    gen = pattern_generator(pattern)
    kwargs = dict(file_id="f", file_size=16 * MB, steps=3, bytes_per_step=2 * MB, request_size=MB)
    if pattern in (AccessPattern.REPETITIVE, AccessPattern.IRREGULAR):
        kwargs["rng"] = SeededStream(2, str(pattern))
    steps = gen(**kwargs)
    for op in all_ops(steps):
        assert 0 <= op.offset
        assert op.offset + op.size <= 16 * MB


def test_pattern_validation():
    with pytest.raises(ValueError):
        sequential_pattern("f", 0, 1, MB, MB)
    with pytest.raises(ValueError):
        sequential_pattern("f", MB, 0, MB, MB)
    with pytest.raises(ValueError):
        sequential_pattern("f", MB, 1, MB, 2 * MB)  # request larger than file
    with pytest.raises(ValueError):
        strided_pattern("f", 4 * MB, 1, MB, MB, stride=0)


# ---------------------------------------------------------------------- spec
def test_read_op_validation():
    with pytest.raises(ValueError):
        ReadOp("f", -1, 1)
    with pytest.raises(ValueError):
        ReadOp("f", 0, 0)


def test_step_and_process_validation():
    with pytest.raises(ValueError):
        StepSpec(compute_time=-1, reads=())
    with pytest.raises(ValueError):
        ProcessSpec(pid=-1, app="a", steps=())


def test_process_files_used_and_bytes():
    p = ProcessSpec(
        pid=0,
        app="a",
        steps=(
            StepSpec(0.1, (ReadOp("x", 0, MB), ReadOp("y", 0, MB))),
            StepSpec(0.1, (ReadOp("x", MB, MB),)),
        ),
    )
    assert p.files_used == ("x", "y")
    assert p.bytes_read == 3 * MB


def test_segment_trace_expands_multisegment_reads():
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("x", 8 * MB)
    p = ProcessSpec(pid=0, app="a", steps=(StepSpec(0.0, (ReadOp("x", 0, 2 * MB),)),))
    trace = p.segment_trace(fs)
    assert [fs.segment_key(k).index for k in trace] == [0, 1]


def test_workload_validation():
    procs = [ProcessSpec(pid=0, app="ghost", steps=())]
    with pytest.raises(ValueError):
        WorkloadSpec("w", [], procs, apps=[AppSpec("real")])
    with pytest.raises(ValueError):
        WorkloadSpec("w", [], procs, apps=[AppSpec("ghost", depends_on=("missing",))])
    dup = [ProcessSpec(pid=0, app="a", steps=()), ProcessSpec(pid=0, app="a", steps=())]
    with pytest.raises(ValueError):
        WorkloadSpec("w", [], dup)


def test_workload_implicit_apps():
    procs = [ProcessSpec(pid=i, app="a", steps=()) for i in range(2)]
    wl = WorkloadSpec("w", [], procs)
    assert [a.name for a in wl.apps] == ["a"]
    assert [p.app for p in wl.processes] == ["a", "a"]


def test_workload_materialize_creates_files():
    fs = FileSystemModel()
    wl = WorkloadSpec(
        "w",
        [FileDecl("/data", 4 * MB, origin="BurstBuffer")],
        [ProcessSpec(pid=0, app="a", steps=())],
    )
    wl.materialize(fs)
    assert fs.get("/data").origin == "BurstBuffer"
    wl.materialize(fs)  # idempotent


# ------------------------------------------------------------------ builders
def test_partitioned_sequential_partitions_are_disjoint():
    wl = partitioned_sequential_workload(processes=4, steps=2, bytes_per_proc_step=2 * MB)
    seen = {}
    for proc in wl.processes:
        for step in proc.steps:
            for op in step.reads:
                assert seen.setdefault(op.offset, proc.pid) == proc.pid
    assert wl.total_bytes == 4 * 2 * 2 * MB
    assert wl.dataset_bytes == wl.total_bytes


def test_burst_workload_volume_and_steps():
    wl = burst_workload(processes=4, bursts=3, burst_bytes_total=8 * MB)
    assert all(len(p.steps) == 3 for p in wl.processes)
    per_burst = sum(s.bytes_read for p in wl.processes for s in p.steps[:1])
    assert per_burst == 8 * MB


def test_burst_workload_window_slides():
    wl = burst_workload(
        processes=2, bursts=2, burst_bytes_total=8 * MB, shift_fraction=0.25, overlap=0.0
    )
    p0 = wl.processes[0]
    first = {op.offset for op in p0.steps[0].reads}
    second = {op.offset for op in p0.steps[1].reads}
    assert first != second and first & second  # shifted but overlapping


def test_burst_workload_validation():
    with pytest.raises(ValueError):
        burst_workload(0, 1, MB)
    with pytest.raises(ValueError):
        burst_workload(1, 1, MB, overlap=1.0)
    with pytest.raises(ValueError):
        burst_workload(1, 1, MB, shift_fraction=2.0)


def test_multi_app_builder_groups_and_shared_dataset():
    wl = multi_app_pattern_workload(
        AccessPattern.SEQUENTIAL, processes=16, apps=4, steps=2,
        bytes_per_proc_step=MB, dataset_bytes=8 * MB,
    )
    assert len(wl.apps) == 4
    assert len(wl.files) == 1
    assert {p.app for p in wl.processes} == {f"app{i}" for i in range(4)}
    for op in (op for p in wl.processes for s in p.steps for op in s.reads):
        assert op.file_id == wl.files[0].file_id


def test_multi_app_repetitive_is_app_level_repeated():
    wl = multi_app_pattern_workload(
        AccessPattern.REPETITIVE, processes=8, apps=2, steps=3,
        bytes_per_proc_step=MB, dataset_bytes=16 * MB,
    )
    p = wl.processes[0]
    assert p.steps[0].reads == p.steps[1].reads == p.steps[2].reads


def test_multi_app_requires_enough_processes():
    with pytest.raises(ValueError):
        multi_app_pattern_workload(AccessPattern.SEQUENTIAL, processes=2, apps=4)


# -------------------------------------------------------------- montage/wrf
def test_montage_structure():
    wl = montage_workload(processes=8, bytes_per_step=MB, compute_time=0.01)
    names = [a.name for a in wl.apps]
    assert names == ["ingest", "project", "diff", "correct"]
    assert wl.app("project").depends_on == ("ingest",)
    assert wl.app("diff").depends_on == ("project",)
    # 16 timesteps per rank across the pipeline (4 phases x 4 steps)
    by_app = {a: [p for p in wl.processes if p.app == a] for a in names}
    assert all(len(p.steps) == 4 for procs in by_app.values() for p in procs)
    # everything staged in the burst buffers
    assert all(f.origin == "BurstBuffer" for f in wl.files)


def test_montage_diff_phase_is_repetitive():
    wl = montage_workload(processes=8, bytes_per_step=MB, compute_time=0.01)
    diff_proc = next(p for p in wl.processes if p.app == "diff")
    assert diff_proc.steps[0].reads == diff_proc.steps[1].reads


def test_montage_reads_stay_in_declared_files():
    wl = montage_workload(processes=8, bytes_per_step=MB)
    sizes = {f.file_id: f.size for f in wl.files}
    for pid, op in wl.iter_all_reads():
        assert op.offset + op.size <= sizes[op.file_id]


def test_wrf_structure_and_strong_scaling():
    total = 64 * MB
    wl = wrf_workload(processes=4, total_bytes=total, compute_time=0.01)
    assert [a.name for a in wl.apps] == ["wps", "model", "post"]
    assert wl.app("model").depends_on == ("wps",)
    # fixed total volume split over ranks and steps: uniform within a
    # phase (the model phase runs twice as many steps as wps/post)
    for app in ("wps", "model", "post"):
        per_rank = {p.bytes_read for p in wl.processes if p.app == app}
        assert len(per_rank) == 1
    wl_big = wrf_workload(processes=8, total_bytes=total, compute_time=0.01)
    assert wl_big.processes[0].bytes_read < wl.processes[0].bytes_read


def test_wrf_validation():
    with pytest.raises(ValueError):
        wrf_workload(processes=0, total_bytes=MB)
    with pytest.raises(ValueError):
        wrf_workload(processes=100, total_bytes=MB)
