"""Unit tests for the simulated namespace (repro.storage.files)."""

import pytest

from repro.storage.files import FileSystemModel, SimFile
from repro.storage.segments import SegmentKey

MB = 1 << 20


def test_simfile_validation():
    with pytest.raises(ValueError):
        SimFile("f", -1, MB)
    with pytest.raises(ValueError):
        SimFile("f", MB, 0)


def test_num_segments_rounds_up():
    assert SimFile("f", int(2.5 * MB), MB).num_segments == 3


def test_segments_iterator_in_order():
    f = SimFile("f", 3 * MB, MB, base=10)
    assert [sid - f.base for sid in f.segments()] == [0, 1, 2]


def test_segment_id_bounds_checked():
    f = SimFile("f", 2 * MB, MB)
    with pytest.raises(IndexError):
        f.segment_id(2)


def test_segment_bytes_tail_segment_short():
    f = SimFile("f", int(1.5 * MB), MB)
    assert f.segment_bytes(f.segment_id(1)) == MB // 2


def test_segment_bytes_foreign_key_rejected():
    fs = FileSystemModel(default_segment_size=MB)
    f = fs.create("f", MB)
    g = fs.create("g", MB)
    with pytest.raises(ValueError):
        f.segment_bytes(g.segment_id(0))


def test_read_segments_clips_to_eof():
    f = SimFile("f", 2 * MB, MB, base=4)
    keys = f.read_segments(int(1.5 * MB), 5 * MB)
    assert [k - f.base for k in keys] == [1]


def test_read_segments_past_eof_empty():
    f = SimFile("f", MB, MB)
    assert list(f.read_segments(2 * MB, MB)) == []


def test_default_origin_is_pfs():
    assert SimFile("f", MB, MB).origin == "PFS"


def test_fs_create_get_exists_remove():
    fs = FileSystemModel()
    fs.create("/a", MB)
    assert fs.exists("/a") and "/a" in fs
    assert fs.get("/a").size == MB
    fs.remove("/a")
    assert not fs.exists("/a")


def test_fs_duplicate_create_rejected():
    fs = FileSystemModel()
    fs.create("/a", MB)
    with pytest.raises(FileExistsError):
        fs.create("/a", MB)


def test_fs_missing_file_errors():
    fs = FileSystemModel()
    with pytest.raises(FileNotFoundError):
        fs.get("/missing")
    with pytest.raises(FileNotFoundError):
        fs.remove("/missing")


def test_fs_default_segment_size_applied():
    fs = FileSystemModel(default_segment_size=2 * MB)
    f = fs.create("/a", 4 * MB)
    assert f.segment_size == 2 * MB
    g = fs.create("/b", 4 * MB, segment_size=MB)
    assert g.segment_size == MB


def test_fs_origin_recorded():
    fs = FileSystemModel()
    f = fs.create("/staged", MB, origin="BurstBuffer")
    assert f.origin == "BurstBuffer"


def test_fs_totals():
    fs = FileSystemModel()
    fs.create("/a", MB)
    fs.create("/b", 2 * MB)
    assert len(fs) == 2
    assert fs.total_bytes == 3 * MB
    assert [f.file_id for f in fs.files()] == ["/a", "/b"]


# -- segment ids ------------------------------------------------------------------
def test_id_ranges_of_two_files_never_overlap():
    fs = FileSystemModel(default_segment_size=MB)
    a = fs.create("/a", 3 * MB)
    empty = fs.create("/empty", 0)
    b = fs.create("/b", int(2.5 * MB))
    assert set(a.segments()).isdisjoint(b.segments())
    assert list(empty.segments()) == []
    assert list(a.segments()) + list(b.segments()) == list(range(6))


def test_segment_key_round_trips_segment_id():
    fs = FileSystemModel(default_segment_size=MB)
    for name, size in (("/a", 3 * MB), ("/empty", 0), ("/b", 5 * MB)):
        fs.create(name, size)
    for name, n in (("/a", 3), ("/b", 5)):
        for i in range(n):
            sid = fs.segment_id(name, i)
            assert fs.segment_key(sid) == SegmentKey(name, i)
            assert fs.file_id_of(sid) == name
            assert fs.file_of(sid) is fs.get(name)
    with pytest.raises(KeyError):
        fs.segment_key(8)
    assert fs.file_of(8) is None and fs.file_of(-1) is None


def test_recreate_at_same_size_keeps_the_ids():
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/a", 3 * MB)
    fs.create("/b", MB)
    fs.remove("/a")
    assert fs.file_of(1) is None  # a removed file's ids name no live file
    assert fs.segment_key(1) == SegmentKey("/a", 1)
    again = fs.create("/a", 3 * MB)
    assert list(again.segments()) == [0, 1, 2]
    assert fs.file_of(1) is again


def test_recreate_larger_gets_a_fresh_range():
    fs = FileSystemModel(default_segment_size=MB)
    a = fs.create("/a", 2 * MB)
    fs.create("/b", MB)
    fs.remove("/a")
    bigger = fs.create("/a", 4 * MB)
    assert list(bigger.segments()) == [3, 4, 5, 6]
    assert fs.ids_of("/a") == range(3, 7)
    # the retired ids still name the old segments, but no live file
    assert fs.segment_key(a.segment_id(1)) == SegmentKey("/a", 1)
    assert fs.file_of(a.segment_id(1)) is None
    # shrinking back fits the new range: the ids stay
    fs.remove("/a")
    assert list(fs.create("/a", MB).segments()) == [3]
