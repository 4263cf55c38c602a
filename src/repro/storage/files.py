"""The simulated file namespace.

The reproduction never touches real bytes — files are metadata records
(path, size, segment geometry) against which the workload generators
issue reads and the prefetchers move segments.  This mirrors the paper's
setting where the precious commodity is *the file itself* and all
optimisation is expressed per file region (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.storage.segments import (
    SegmentKey,
    covering_segments,
    segment_count,
    segment_size_of,
)

__all__ = ["SimFile", "FileSystemModel"]


@dataclass
class SimFile:
    """Metadata of one simulated file.

    Attributes
    ----------
    file_id:
        Unique path-like identifier (e.g. ``"/pfs/montage/fits_007"``).
    size:
        Logical size in bytes.
    segment_size:
        Segmentation geometry used for this file's prefetching units.
    """

    file_id: str
    size: int
    segment_size: int
    #: Name of the tier that permanently holds the file's bytes.  The
    #: default is the backing PFS; workflows whose inputs are staged into
    #: the burst buffers first (paper Fig. 6: "data are initially staged
    #: in the burst buffer nodes") set this to the BB tier's name.  A
    #: read is a *hit* when served from a tier faster than its origin.
    origin: str = "PFS"
    #: Content version, bumped on every write.  The auditor compares it
    #: at epoch start (the stat-on-open check) so writes that happened
    #: while the file was unwatched still invalidate stale prefetched
    #: copies.
    version: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file size must be non-negative: {self.size}")
        if self.segment_size <= 0:
            raise ValueError(f"segment size must be positive: {self.segment_size}")

    @property
    def num_segments(self) -> int:
        """Number of prefetching units covering the file."""
        return segment_count(self.size, self.segment_size)

    def segments(self) -> Iterator[SegmentKey]:
        """Iterate over every segment key of the file, in order."""
        for i in range(self.num_segments):
            yield SegmentKey(self.file_id, i)

    def segment_key(self, index: int) -> SegmentKey:
        """Key of segment ``index`` (bounds-checked)."""
        if not 0 <= index < self.num_segments:
            raise IndexError(f"segment {index} out of range for {self.file_id}")
        return SegmentKey(self.file_id, index)

    def segment_bytes(self, key: SegmentKey) -> int:
        """Byte length of ``key`` within this file (last may be short)."""
        if key.file_id != self.file_id:
            raise ValueError(f"{key} does not belong to {self.file_id}")
        return segment_size_of(key, self.size, self.segment_size)

    def segment_span(self, offset: int, size: int) -> tuple[int, int]:
        """``(first, last)`` segment indexes a read touches, clipped.

        The allocation-free core of :meth:`read_segments` for hot paths
        (the auditor's event fold) that walk the index range
        directly instead of materialising a key list.  An empty span is
        signalled as ``(0, -1)`` so ``range(first, last + 1)`` is empty.
        """
        if offset >= self.size:
            return (0, -1)
        size = min(size, self.size - offset)
        if offset < 0 or size < 0:
            raise ValueError(f"offset/size must be non-negative, got {offset}/{size}")
        if size == 0:
            return (0, -1)
        seg = self.segment_size
        return (offset // seg, (offset + size - 1) // seg)

    def read_segments(self, offset: int, size: int) -> list[SegmentKey]:
        """Segments touched by a read, clipped to the file's extent."""
        if offset >= self.size:
            return []
        size = min(size, self.size - offset)
        return covering_segments(self.file_id, offset, size, self.segment_size)


class FileSystemModel:
    """Registry of the simulated namespace.

    One instance backs a whole experiment; the workload generators create
    their datasets here and every component resolves ``file_id`` through
    it.
    """

    def __init__(self, default_segment_size: int = 1 << 20):
        if default_segment_size <= 0:
            raise ValueError("default segment size must be positive")
        self.default_segment_size = default_segment_size
        self._files: dict[str, SimFile] = {}

    def create(
        self,
        file_id: str,
        size: int,
        segment_size: int | None = None,
        origin: str = "PFS",
    ) -> SimFile:
        """Create (or error on duplicate) a file record."""
        if file_id in self._files:
            raise FileExistsError(f"file already exists: {file_id}")
        f = SimFile(file_id, size, segment_size or self.default_segment_size, origin)
        self._files[file_id] = f
        return f

    def get(self, file_id: str) -> SimFile:
        """Look up a file record; raises ``FileNotFoundError`` if absent."""
        try:
            return self._files[file_id]
        except KeyError:
            raise FileNotFoundError(f"no such simulated file: {file_id}") from None

    def exists(self, file_id: str) -> bool:
        """Whether ``file_id`` is registered."""
        return file_id in self._files

    def lookup(self, file_id: str) -> Optional[SimFile]:
        """The file record, or ``None`` when ``file_id`` is not registered."""
        return self._files.get(file_id)

    def touch_write(self, file_id: str) -> int:
        """Record a content change; returns the new version."""
        f = self.get(file_id)
        f.version += 1
        return f.version

    def remove(self, file_id: str) -> None:
        """Delete a file record."""
        if file_id not in self._files:
            raise FileNotFoundError(f"no such simulated file: {file_id}")
        del self._files[file_id]

    def files(self) -> list[SimFile]:
        """All registered files, in creation order."""
        return list(self._files.values())

    @property
    def total_bytes(self) -> int:
        """Sum of all file sizes."""
        return sum(f.size for f in self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._files

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FileSystemModel files={len(self)} bytes={self.total_bytes}>"
