"""Unit tests for segment stats and heatmaps (repro.core.stats / .heatmap)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heatmap import FileHeatmap, HeatmapStore
from repro.core.stats import SegmentStats
from repro.storage.segments import SegmentKey


def mk(key="f", idx=0, nbytes=1 << 20, hist=16):
    return SegmentStats(key=SegmentKey(key, idx), nbytes=nbytes, max_history=hist)


# ------------------------------------------------------------------- stats
def test_record_updates_frequency_and_recency():
    s = mk()
    s.record(1.0)
    s.record(2.0)
    assert s.refs == 2
    assert s.last_access == 2.0
    assert list(s.times) == [1.0, 2.0]


def test_history_window_caps_but_refs_keep_counting():
    s = mk(hist=3)
    for t in range(10):
        s.record(float(t))
    assert s.refs == 10
    assert list(s.times) == [7.0, 8.0, 9.0]


def test_out_of_order_timestamps_clamped():
    s = mk()
    s.record(5.0)
    s.record(3.0)  # events can reorder through the queue
    assert s.last_access == 5.0


def test_prev_sequencing_recorded():
    s = mk(idx=3)
    prev = SegmentKey("f", 2)
    s.record(1.0, prev=prev)
    assert s.prev == prev


def test_self_prev_ignored():
    s = mk(idx=3)
    s.record(1.0, prev=SegmentKey("f", 3))
    assert s.prev is None


def test_successor_links_and_most_likely():
    s = mk(idx=0)
    nxt1, nxt2 = SegmentKey("f", 1), SegmentKey("f", 2)
    s.link_successor(nxt1)
    s.link_successor(nxt2)
    s.link_successor(nxt1)
    assert s.most_likely_successor() == nxt1
    s.link_successor(s.key)  # self-link ignored
    assert s.key not in s.successors


def test_most_likely_successor_none_without_history():
    assert mk().most_likely_successor() is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=60))
def test_best_successor_tracks_the_max_scan(links):
    # few distinct targets, so repeats and ties are common; index 0 is the
    # record's own key and exercises the ignored self-link
    s = mk(idx=0)
    for idx in links:
        s.link_successor(SegmentKey("f", idx))
        if s.successors:
            assert s.best_successor == max(s.successors.items(), key=lambda kv: kv[1])[0]
        else:
            assert s.best_successor is None
    assert s.most_likely_successor() == s.best_successor


def test_best_successor_tie_keeps_first_inserted():
    s = mk(idx=0)
    a, b = SegmentKey("f", 1), SegmentKey("f", 2)
    s.link_successor(a)
    s.link_successor(b)
    assert s.best_successor == a  # 1:1, a came first
    s.link_successor(b)
    assert s.best_successor == b  # 1:2
    s.link_successor(a)
    assert s.best_successor == a  # 2:2 again, a came first


def test_stats_score_delegates_to_eq1():
    s = mk()
    s.record(0.0)
    assert s.score(now=1.0, p=2.0) == pytest.approx(0.5)
    assert mk().score(now=1.0) == 0.0


def test_flat_rows_for_batch_scoring():
    s = mk()
    s.record(1.0)
    s.record(3.0)
    ages, refs = s.flat_rows(now=4.0)
    assert ages == [3.0, 1.0]
    assert refs == 2


def test_stats_validation():
    with pytest.raises(ValueError):
        SegmentStats(key=SegmentKey("f", 0), nbytes=-1)
    with pytest.raises(ValueError):
        SegmentStats(key=SegmentKey("f", 0), nbytes=1, max_history=0)


# ----------------------------------------------------------------- heatmap
def test_heatmap_requires_1d_nonnegative():
    with pytest.raises(ValueError):
        FileHeatmap("f", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FileHeatmap("f", np.array([-1.0]))


def test_heatmap_hottest_ordering():
    hm = FileHeatmap("f", np.array([0.1, 5.0, 2.0]))
    assert hm.hottest(2) == [1, 2]
    assert hm.hottest(10) == [1, 2, 0]
    with pytest.raises(ValueError):
        hm.hottest(0)


def test_heatmap_temperature_out_of_range_zero():
    hm = FileHeatmap("f", np.array([1.0]))
    assert hm.temperature(0) == 1.0
    assert hm.temperature(5) == 0.0


def test_heatmap_merge_decays_history():
    old = FileHeatmap("f", np.array([4.0, 0.0]))
    new = FileHeatmap("f", np.array([1.0, 1.0, 1.0]))
    merged = old.merge(new, decay=0.5)
    assert merged.scores.tolist() == [3.0, 1.0, 1.0]
    assert merged.epoch == 1


def test_heatmap_merge_different_files_rejected():
    with pytest.raises(ValueError):
        FileHeatmap("a", np.array([1.0])).merge(FileHeatmap("b", np.array([1.0])))


def test_heatmap_json_round_trip():
    hm = FileHeatmap("f", np.array([1.0, 2.5]), captured_at=3.0, epoch=2)
    back = FileHeatmap.from_json(hm.to_json())
    assert back.file_id == "f"
    assert back.scores.tolist() == [1.0, 2.5]
    assert back.captured_at == 3.0 and back.epoch == 2


def test_store_save_load_delete_in_memory():
    store = HeatmapStore()
    store.save(FileHeatmap("f", np.array([1.0])))
    assert "f" in store and len(store) == 1
    assert store.load("f") is not None
    store.delete("f")
    assert store.load("f") is None


def test_store_save_merges_with_existing():
    store = HeatmapStore()
    store.save(FileHeatmap("f", np.array([2.0])))
    store.save(FileHeatmap("f", np.array([2.0])))
    # second save evolves (decayed old + new), not replaces
    assert store.load("f").scores[0] == pytest.approx(3.0)


def test_store_file_backed_persistence(tmp_path):
    store = HeatmapStore(tmp_path)
    store.save(FileHeatmap("/pfs/deep/file", np.array([1.0, 2.0])))
    fresh = HeatmapStore(tmp_path)  # new process, same directory
    hm = fresh.load("/pfs/deep/file")
    assert hm is not None and hm.scores.tolist() == [1.0, 2.0]


def test_store_clear_deletes_everything(tmp_path):
    store = HeatmapStore(tmp_path)
    store.save(FileHeatmap("a", np.array([1.0])))
    store.save(FileHeatmap("b", np.array([1.0])))
    store.clear()
    assert len(store) == 0
    assert HeatmapStore(tmp_path).load("a") is None
