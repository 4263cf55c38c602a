"""Write-path tests: consistency invalidation end-to-end (paper §III-B)."""

import pytest

from repro.core.config import HFetchConfig
from repro.core.prefetcher import HFetchPrefetcher
from repro.prefetchers.none import NoPrefetcher
from repro.runtime.cluster import ClusterSpec, SimulatedCluster, TierSpec
from repro.runtime.runner import WorkflowRunner
from repro.storage.devices import BURST_BUFFER, DRAM, NVME
from repro.workloads.spec import (
    AppSpec,
    FileDecl,
    ProcessSpec,
    ReadOp,
    StepSpec,
    WorkloadSpec,
)

MB = 1 << 20


class CheckedInvalidation(HFetchPrefetcher):
    """HFetch that records, around each write invalidation, how many
    segments of the written file are resident, in flight and scored."""

    def attach(self, ctx) -> None:
        super().attach(ctx)
        server = self.server
        invalidate = server.auditor.invalidate_hook
        self.checks = []

        def state(file_id):
            def count(keys):
                return sum(1 for k in keys if server.fs.file_id_of(k) == file_id)

            return (
                count(server.hierarchy.resident_segments()),
                count(server.io_clients.in_flight),
                count(server.engine._scores),
            )

        def checked(file_id):
            before = state(file_id)
            invalidate(file_id)
            self.checks.append((before, state(file_id)))

        server.auditor.invalidate_hook = checked


def cluster(ranks=8):
    return SimulatedCluster(
        ClusterSpec(
            tiers=(
                TierSpec(DRAM, 16 * MB),
                TierSpec(NVME, 32 * MB),
                TierSpec(BURST_BUFFER, 64 * MB),
            )
        ).scaled_for(ranks)
    )


def test_step_writes_counted_and_charged():
    wl = WorkloadSpec(
        "writer",
        [FileDecl("/out", 8 * MB)],
        [
            ProcessSpec(
                pid=0,
                app="w",
                steps=(
                    StepSpec(0.01, reads=(), writes=(ReadOp("/out", 0, 2 * MB),)),
                ),
            )
        ],
    )
    cl = cluster(1)
    runner = WorkflowRunner(cl, wl, NoPrefetcher())
    result = runner.run()
    assert cl.hierarchy.backing.bytes_written == 2 * MB
    assert cl.hierarchy.backing.writes == 1


def test_in_epoch_write_invalidates_prefetched_data():
    # reader holds the file open while a writer rewrites it: the watch
    # sees the write event and HFetch evicts the stale prefetched copies
    reader_steps = tuple(
        StepSpec(0.1, reads=(ReadOp("/data", 0, 2 * MB),)) for _ in range(8)
    )
    writer_steps = (
        StepSpec(0.35, reads=(), writes=(ReadOp("/data", 0, MB),)),
    )
    wl = WorkloadSpec(
        "rw",
        [FileDecl("/data", 8 * MB)],
        [
            ProcessSpec(pid=0, app="reader", steps=reader_steps),
            ProcessSpec(pid=1, app="writer", steps=writer_steps),
        ],
    )
    cl = cluster(2)
    pf = CheckedInvalidation(
        HFetchConfig(engine_interval=0.02, engine_update_threshold=2)
    )
    WorkflowRunner(cl, wl, pf).run()
    assert pf.server.auditor.invalidations >= 1
    # the write found prefetched segments of the file, and none of them
    # survived it: not resident, not in flight, not scored by the engine
    assert pf.checks
    assert any(resident for (resident, _, _), _after in pf.checks)
    assert all(after == (0, 0, 0) for _before, after in pf.checks)


def test_unwatched_write_invalidates_at_next_open():
    # the write lands AFTER the only reader closed (no watch, no event);
    # the stat-on-open check of the next epoch must catch it
    wl = WorkloadSpec(
        "rw2",
        [FileDecl("/data", 8 * MB)],
        [
            ProcessSpec(
                pid=0,
                app="reader1",
                steps=(StepSpec(0.01, reads=(ReadOp("/data", 0, 2 * MB),)),),
            ),
            ProcessSpec(
                pid=1,
                app="writer",
                steps=(StepSpec(0.0, reads=(), writes=(ReadOp("/data", 0, MB),)),),
                start_delay=0.5,
            ),
            ProcessSpec(
                pid=2,
                app="reader2",
                steps=(StepSpec(0.01, reads=(ReadOp("/data", 0, 2 * MB),)),),
                start_delay=1.0,
            ),
        ],
    )
    cl = cluster(4)
    pf = HFetchPrefetcher(HFetchConfig(engine_interval=0.02, engine_update_threshold=2))
    WorkflowRunner(cl, wl, pf).run()
    # reader2's open performed the stat check and invalidated stale data
    assert pf.server.auditor.invalidations >= 1
    assert cl.fs.get("/data").version == 1


def test_producer_consumer_pipeline_with_writes():
    producer = ProcessSpec(
        pid=0,
        app="producer",
        steps=(StepSpec(0.01, reads=(), writes=(ReadOp("/stage", 0, 4 * MB),)),),
    )
    consumers = [
        ProcessSpec(
            pid=1 + i,
            app="consumer",
            steps=(StepSpec(0.05, reads=(ReadOp("/stage", i * 2 * MB, 2 * MB),)),),
        )
        for i in range(2)
    ]
    wl = WorkloadSpec(
        "pipeline",
        [FileDecl("/stage", 8 * MB, origin="BurstBuffer")],
        [producer] + consumers,
        apps=[AppSpec("producer"), AppSpec("consumer", depends_on=("producer",))],
    )
    result = WorkflowRunner(
        cluster(4), wl, HFetchPrefetcher(HFetchConfig(engine_interval=0.02))
    ).run()
    assert result.hits + result.misses == 4  # consumers' segments


def test_files_written_property():
    p = ProcessSpec(
        pid=0,
        app="a",
        steps=(
            StepSpec(0.0, reads=(ReadOp("in", 0, MB),), writes=(ReadOp("out", 0, MB),)),
        ),
    )
    assert p.files_written == ("out",)
    assert p.bytes_written == MB


# ---------------------------------------------- invalidation cost scaling
def test_invalidation_cost_independent_of_other_files():
    """Writing a small file must not scan the whole stats map.

    The auditor walks only the written file's id range
    (``FileSystemModel.ids_of``), so invalidating a 3-segment file
    deletes exactly 3 records and 3 dirty-vector entries even with a
    1000-segment neighbour in the map and the vector — and never falls
    back to a full ``keys()`` scan.
    """
    from repro.core.auditor import FileSegmentAuditor
    from repro.events.types import EventType, FileEvent
    from repro.storage.files import FileSystemModel

    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/huge", 1000 * MB)
    fs.create("/tiny", 3 * MB)
    auditor = FileSegmentAuditor(HFetchConfig(), fs)
    auditor.on_events(
        [FileEvent(EventType.READ, "/huge", offset=0, size=1000 * MB, timestamp=0.1),
         FileEvent(EventType.READ, "/tiny", offset=0, size=3 * MB, timestamp=0.2)]
    )
    assert len(auditor.stats_map) == 1003

    scans = []
    original_keys = auditor.stats_map.keys
    auditor.stats_map.keys = lambda: scans.append(1) or original_keys()

    deletes_before = auditor.stats_map.deletes
    auditor.on_event(FileEvent(EventType.WRITE, "/tiny", timestamp=0.3))

    assert scans == []  # no full-map scan
    assert auditor.stats_map.deletes - deletes_before == 3
    assert auditor.stats_of(fs.segment_id("/tiny", 0)) is None
    # the big neighbour is untouched
    assert len(auditor.stats_map) == 1000
    assert auditor.stats_of(fs.segment_id("/huge", 999)) is not None
    # its dirty entries survive; the written file's are gone
    drained = auditor.drain_dirty()
    assert len(drained) == 1000
    assert all(fs.file_id_of(k) == "/huge" for k in drained)


def test_invalidation_of_a_file_recreated_larger_drops_its_current_range():
    """A file removed and re-created with more segments gets a fresh id
    range.  A write drops the records of that current range; those of
    the old range stay in the map, uncharged.  No live file owns the old
    ids any more, so no read reaches them again and nothing reads their
    records."""
    from repro.core.auditor import FileSegmentAuditor
    from repro.events.types import EventType, FileEvent
    from repro.storage.files import FileSystemModel

    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/g", 2 * MB)
    auditor = FileSegmentAuditor(HFetchConfig(), fs)
    old = fs.ids_of("/g")
    auditor.on_event(FileEvent(EventType.READ, "/g", offset=0, size=2 * MB, timestamp=0.1))
    assert auditor.drain_dirty() == list(old)

    fs.remove("/g")
    fs.create("/g", 4 * MB)
    new = fs.ids_of("/g")
    assert new.start >= old.stop  # a fresh range, after the old one
    auditor.on_event(FileEvent(EventType.READ, "/g", offset=0, size=4 * MB, timestamp=0.2))
    assert len(auditor.stats_map) == len(old) + len(new)

    deletes_before = auditor.stats_map.deletes
    auditor.on_event(FileEvent(EventType.WRITE, "/g", timestamp=0.3))
    # the current range is gone from the map and the dirty vector ...
    assert all(auditor.stats_of(k) is None for k in new)
    assert auditor.pending_updates == 0
    assert auditor.stats_map.deletes - deletes_before == len(new)
    # ... and the old range's records are left as they were
    assert all(auditor.stats_of(k).refs == 1 for k in old)
    assert all(fs.file_of(k) is None for k in old)
