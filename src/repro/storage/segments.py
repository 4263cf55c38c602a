"""File-segment arithmetic.

A *file segment* is the prefetching unit in HFetch (paper §III-C): a file
region enclosed by start and end offsets.  Segments are named by
``(file_id, index)`` where ``index`` enumerates fixed-size slots of the
file at the configured segment size; the *dynamic* granularity of the
paper is realised by always operating on the exact set of segments a read
covers (a 3 MB read at offset 0 with 1 MB segments touches segments
0, 1 and 2 — the paper's own example).  Inside the simulation each
segment is an integer id (see
:class:`~repro.storage.files.FileSystemModel`); :class:`SegmentKey` is
the name reports and tests use.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "SegmentKey",
    "segment_bounds",
    "segment_count",
    "segment_size_of",
]


class SegmentKey(NamedTuple):
    """Globally unique identifier of one file segment."""

    file_id: str
    index: int

    def __str__(self) -> str:
        return f"{self.file_id}[{self.index}]"


def segment_bounds(index: int, segment_size: int) -> tuple[int, int]:
    """``(start_offset, end_offset_exclusive)`` of segment ``index``."""
    if index < 0:
        raise ValueError(f"segment index must be non-negative, got {index}")
    return index * segment_size, (index + 1) * segment_size


def segment_count(file_size: int, segment_size: int) -> int:
    """Number of segments needed to cover a file of ``file_size`` bytes."""
    if segment_size <= 0:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    if file_size < 0:
        raise ValueError(f"file_size must be non-negative, got {file_size}")
    return -(-file_size // segment_size)  # ceil division


def segment_size_of(index: int, file_size: int, segment_size: int) -> int:
    """Actual byte length of segment ``index`` (the last one may be short)."""
    start, end = segment_bounds(index, segment_size)
    if start >= file_size:
        return 0
    return min(end, file_size) - start
