"""Unit tests for segment arithmetic (repro.storage.segments).

The covering-segment cases run through ``SimFile.read_segments`` on a
file large enough never to clip, at id base 0 so ids equal indexes.
"""

import pytest

from repro.storage.files import SimFile
from repro.storage.segments import (
    SegmentKey,
    segment_bounds,
    segment_count,
    segment_size_of,
)

MB = 1 << 20


def covering_segments(offset, size, segment_size):
    return list(SimFile("f", 1 << 40, segment_size).read_segments(offset, size))


def test_paper_example_3mb_read_touches_three_segments():
    # "assume the segment size is 1MB and there is an fread() operation
    # starting at offset 0 with 3MB size, then HFetch will prefetch
    # segments 1, 2, and 3" (§III-C)
    keys = covering_segments(0, 3 * MB, 1 * MB)
    assert keys == [0, 1, 2]


def test_unaligned_read_includes_boundary_segments():
    keys = covering_segments(MB - 1, 2, MB)
    assert keys == [0, 1]


def test_zero_size_read_touches_nothing():
    assert covering_segments(100, 0, MB) == []


def test_single_byte_read():
    keys = covering_segments(5 * MB + 17, 1, MB)
    assert keys == [5]


def test_exact_segment_boundary_read():
    keys = covering_segments(2 * MB, MB, MB)
    assert keys == [2]


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        covering_segments(-1, 10, MB)
    with pytest.raises(ValueError):
        covering_segments(0, -1, MB)
    with pytest.raises(ValueError):
        covering_segments(0, 10, 0)


def test_segment_bounds():
    assert segment_bounds(0, MB) == (0, MB)
    assert segment_bounds(3, MB) == (3 * MB, 4 * MB)


def test_segment_bounds_negative_index_rejected():
    with pytest.raises(ValueError):
        segment_bounds(-1, MB)


def test_segment_count_exact_and_partial():
    assert segment_count(4 * MB, MB) == 4
    assert segment_count(4 * MB + 1, MB) == 5
    assert segment_count(0, MB) == 0


def test_segment_count_invalid_inputs():
    with pytest.raises(ValueError):
        segment_count(-1, MB)
    with pytest.raises(ValueError):
        segment_count(10, 0)


def test_segment_size_of_full_and_tail():
    file_size = int(2.5 * MB)
    assert segment_size_of(0, file_size, MB) == MB
    assert segment_size_of(2, file_size, MB) == file_size - 2 * MB


def test_segment_size_of_beyond_eof_is_zero():
    assert segment_size_of(9, 2 * MB, MB) == 0


def test_segment_key_str():
    assert str(SegmentKey("/pfs/x", 4)) == "/pfs/x[4]"


def test_keys_are_hashable_and_comparable():
    a, b = SegmentKey("f", 1), SegmentKey("f", 1)
    assert a == b and hash(a) == hash(b)
    assert SegmentKey("f", 0) != SegmentKey("g", 0)


def test_covering_segments_total_coverage():
    # the segments returned must jointly cover the requested byte range
    offset, size, seg = 3 * MB + 123, 5 * MB + 7, MB
    keys = covering_segments(offset, size, seg)
    lo = keys[0] * seg
    hi = (keys[-1] + 1) * seg
    assert lo <= offset and offset + size <= hi
