"""Unit tests for the file segment auditor (repro.core.auditor)."""

import pytest

from repro.core.auditor import DIRTY_VECTOR_CAPACITY, FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.events.types import EventType, FileEvent
from repro.storage.files import FileSystemModel

MB = 1 << 20


def make_auditor(**cfg):
    config = HFetchConfig(**cfg) if cfg else HFetchConfig()
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", 16 * MB)
    return FileSegmentAuditor(config, fs), fs


def read_event(offset, size, t=0.0, pid=0, node=0, fid="/f"):
    return FileEvent(EventType.READ, fid, offset=offset, size=size, timestamp=t, pid=pid, node=node)


def test_read_event_updates_covered_segments():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, 3 * MB, t=1.0))
    for i in range(3):
        stats = aud.stats_of(aud.fs.segment_id("/f", i))
        assert stats is not None and stats.refs == 1
    assert aud.stats_of(aud.fs.segment_id("/f", 3)) is None
    assert aud.score_updates == 3


def test_scores_reflect_frequency():
    aud, _ = make_auditor()
    for t in (1.0, 2.0, 3.0):
        aud.on_event(read_event(0, MB, t=t))
    hot = aud.score_of(aud.fs.segment_id("/f", 0), now=3.0)
    aud.on_event(read_event(5 * MB, MB, t=3.0))
    cold = aud.score_of(aud.fs.segment_id("/f", 5), now=3.0)
    assert hot > cold


def test_sequencing_follows_per_process_stream():
    aud, _ = make_auditor()
    # two ranks interleave: rank 0 reads 0 then 1; rank 1 reads 8 then 9
    aud.on_event(read_event(0, MB, t=1.0, pid=0))
    aud.on_event(read_event(8 * MB, MB, t=1.1, pid=1))
    aud.on_event(read_event(1 * MB, MB, t=1.2, pid=0))
    aud.on_event(read_event(9 * MB, MB, t=1.3, pid=1))
    s0 = aud.stats_of(aud.fs.segment_id("/f", 0))
    s8 = aud.stats_of(aud.fs.segment_id("/f", 8))
    assert s0.best_successor == aud.fs.segment_id("/f", 1)
    assert s8.best_successor == aud.fs.segment_id("/f", 9)


def test_multi_segment_read_chains_internally():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, 3 * MB, t=1.0))
    assert aud.stats_of(aud.fs.segment_id("/f", 0)).best_successor == aud.fs.segment_id("/f", 1)
    assert aud.stats_of(aud.fs.segment_id("/f", 1)).best_successor == aud.fs.segment_id("/f", 2)


def test_dirty_vector_drains_once():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, 2 * MB))
    dirty = aud.drain_dirty()
    assert set(dirty) == {aud.fs.segment_id("/f", 0), aud.fs.segment_id("/f", 1)}
    assert aud.drain_dirty() == []
    assert aud.pending_updates == 0


def test_dirty_vector_dedups_repeated_access():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, MB, t=1.0))
    aud.on_event(read_event(0, MB, t=2.0))
    assert len(aud.drain_dirty()) == 1


def test_dirty_vector_bounded_drops_newest():
    aud, fs = make_auditor()
    fs.create("/big", (DIRTY_VECTOR_CAPACITY + 2) * MB)
    aud.on_event(read_event(0, (DIRTY_VECTOR_CAPACITY + 2) * MB, fid="/big"))
    assert aud.pending_updates == DIRTY_VECTOR_CAPACITY
    assert aud.dirty_dropped == 2
    assert aud.fs.segment_id("/big", DIRTY_VECTOR_CAPACITY) not in aud.drain_dirty()


def test_epoch_refcounting():
    aud, _ = make_auditor()
    assert aud.start_epoch("/f")  # first opener
    assert not aud.start_epoch("/f")  # joiner
    assert not aud.end_epoch("/f")  # one closer left
    assert aud.in_epoch("/f")
    assert aud.end_epoch("/f")  # last closer
    assert not aud.in_epoch("/f")


def test_epoch_close_persists_heatmap_and_reopen_seeds_dirty():
    aud, _ = make_auditor()
    aud.start_epoch("/f")
    aud.on_event(read_event(0, 2 * MB, t=1.0))
    aud.drain_dirty()
    aud.end_epoch("/f", now=2.0)
    assert aud.heatmaps.load("/f") is not None
    # re-open: the stored heatmap warms the dirty vector immediately
    aud.start_epoch("/f")
    warmed = aud.drain_dirty()
    assert aud.fs.segment_id("/f", 0) in warmed


def test_write_event_invalidates_stats_and_calls_hook():
    aud, _ = make_auditor()
    invalidated = []
    aud.invalidate_hook = invalidated.append
    aud.on_event(read_event(0, 2 * MB, t=1.0))
    aud.on_event(FileEvent(EventType.WRITE, "/f", offset=0, size=MB, timestamp=2.0))
    assert aud.stats_of(aud.fs.segment_id("/f", 0)) is None
    assert aud.pending_updates == 0
    assert invalidated == ["/f"]
    assert aud.invalidations == 1


def test_unknown_file_events_ignored():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, MB, fid="/ghost"))
    assert aud.score_updates == 0


def test_fold_geometry_follows_a_removed_and_recreated_file():
    """A new record takes its size from the live file record."""
    aud, fs = make_auditor()
    fs.create("/g", 4 * MB)
    aud.on_event(read_event(3 * MB, MB, fid="/g"))
    assert aud.stats_of(aud.fs.ids_of("/g")[3]).nbytes == MB
    fs.remove("/g")
    aud.on_event(read_event(0, MB, fid="/g"))
    assert aud.stats_of(aud.fs.ids_of("/g")[0]) is None  # gone: ignored
    fs.create("/g", 2 * MB + MB // 2)
    aud.on_event(read_event(2 * MB, MB, fid="/g"))
    # segment 2 is now the short last segment of the new record
    assert aud.stats_of(aud.fs.ids_of("/g")[2]).nbytes == MB // 2


def test_batch_score_alignment():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, MB, t=1.0))
    aud.on_event(read_event(1 * MB, MB, t=1.0))
    aud.on_event(read_event(1 * MB, MB, t=2.0))
    keys = [aud.fs.segment_id("/f", 0), aud.fs.segment_id("/f", 9), aud.fs.segment_id("/f", 1)]
    scores = aud.batch_score(keys, now=2.0)
    assert scores[1] == 0.0  # never accessed
    assert scores[2] > scores[0]  # twice-read beats once-read
    for got, key in zip(scores, keys):
        assert got == pytest.approx(aud.score_of(key, now=2.0))


def test_home_node_is_first_accessor():
    aud, _ = make_auditor()
    aud.on_event(read_event(0, MB, node=5))
    aud.on_event(read_event(0, MB, node=9))
    assert aud.home_node(aud.fs.segment_id("/f", 0)) == 5
    assert aud.home_node(aud.fs.segment_id("/f", 7)) == 0  # default


def test_build_heatmap_shape():
    aud, fs = make_auditor()
    aud.on_event(read_event(0, 2 * MB, t=1.0))
    hm = aud.build_heatmap("/f", now=1.0)
    assert hm.num_segments == fs.get("/f").num_segments
    assert hm.scores[0] > 0 and hm.scores[5] == 0


def test_update_listener_sees_update_delta():
    """Listeners get each fold's number of score updates, not a total."""
    aud, _ = make_auditor()
    seen = []
    aud.add_update_listener(seen.append)
    aud.on_event(read_event(0, 2 * MB))
    assert seen == [2]
    aud.on_event(read_event(2 * MB, MB))
    assert seen == [2, 1]
    assert aud.score_updates == 3
