"""The simulated file namespace.

The reproduction never touches real bytes — files are metadata records
(path, size, segment geometry) against which the workload generators
issue reads and the prefetchers move segments.  This mirrors the paper's
setting where the precious commodity is *the file itself* and all
optimisation is expressed per file region (§III-B).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from repro.storage.segments import SegmentKey, segment_count

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
    base:
        Integer id of segment 0; segment ``i`` is ``base + i`` (assigned
        by :class:`FileSystemModel`, see its notes on id ranges).
    num_segments:
        Number of prefetching units covering the file.
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
    base: int = 0
    num_segments: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file size must be non-negative: {self.size}")
        if self.segment_size <= 0:
            raise ValueError(f"segment size must be positive: {self.segment_size}")
        self.num_segments = segment_count(self.size, self.segment_size)

    def segments(self) -> range:
        """Every segment id of the file, in order."""
        return range(self.base, self.base + self.num_segments)

    def segment_id(self, index: int) -> int:
        """Id of segment ``index`` (bounds-checked)."""
        if not 0 <= index < self.num_segments:
            raise IndexError(f"segment {index} out of range for {self.file_id}")
        return self.base + index

    def segment_bytes(self, sid: int) -> int:
        """Byte length of segment ``sid`` within this file (last may be short)."""
        index = sid - self.base
        if not 0 <= index < self.num_segments:
            raise ValueError(f"segment id {sid} does not belong to {self.file_id}")
        return min(self.segment_size, self.size - index * self.segment_size)

    def read_segments(self, offset: int, size: int) -> range:
        """Ids of the segments a read touches, clipped to the file's extent
        (empty for a zero-byte read or one starting past the end)."""
        if offset >= self.size:
            return range(0)
        size = min(size, self.size - offset)
        if offset < 0 or size < 0:
            raise ValueError(f"offset/size must be non-negative, got {offset}/{size}")
        if size == 0:
            return range(0)
        seg, base = self.segment_size, self.base
        return range(base + offset // seg, base + (offset + size - 1) // seg + 1)


class FileSystemModel:
    """Registry of the simulated namespace.

    One instance backs a whole experiment; the workload generators create
    their datasets here and every component resolves ``file_id`` through
    it.

    It also numbers the segments.  The first time a ``file_id`` is
    created it is given a contiguous range of integer ids, one per
    segment, after every range given out before; segment ``i`` of the
    file is ``base + i``.  Every layer keys its per-segment state by that
    id, and :meth:`segment_key` turns one back into its
    :class:`~repro.storage.segments.SegmentKey` for reports.  A file
    re-created under the same ``file_id`` keeps its range, so its ids
    equal its old ones, as its keys do; one re-created with more segments
    than the range holds gets a fresh range, and the old ids then name
    segments of no live file (like those of a removed file).
    """

    def __init__(self, default_segment_size: int = 1 << 20):
        if default_segment_size <= 0:
            raise ValueError("default segment size must be positive")
        self.default_segment_size = default_segment_size
        self._files: dict[str, SimFile] = {}
        # file_id -> (base, width) of its current id range
        self._ranges: dict[str, tuple[int, int]] = {}
        # every range ever given out, in id order: bases and owners
        self._bases: list[int] = []
        self._owners: list[str] = []
        self._next_id = 0

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
        n = f.num_segments
        base, width = self._ranges.get(file_id, (0, -1))
        if width < n:
            base, width = self._ranges[file_id] = (self._next_id, n)
            self._bases.append(base)
            self._owners.append(file_id)
            self._next_id += n
        f.base = base
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

    # -- segment ids -------------------------------------------------------
    def segment_id(self, file_id: str, index: int) -> int:
        """Id of segment ``index`` of a registered file (bounds-checked)."""
        return self.get(file_id).segment_id(index)

    def file_id_of(self, sid: int) -> str:
        """The ``file_id`` whose range holds ``sid`` (an id given out)."""
        return self._owners[bisect_right(self._bases, sid) - 1]

    def segment_key(self, sid: int) -> SegmentKey:
        """The key of segment id ``sid`` (KeyError if never given out)."""
        if not 0 <= sid < self._next_id:
            raise KeyError(f"segment id {sid} was never given out")
        i = bisect_right(self._bases, sid) - 1
        return SegmentKey(self._owners[i], sid - self._bases[i])

    def file_of(self, sid: int) -> Optional[SimFile]:
        """The registered file segment ``sid`` belongs to, or ``None``."""
        if not 0 <= sid < self._next_id:
            return None
        f = self._files.get(self._owners[bisect_right(self._bases, sid) - 1])
        if f is not None and 0 <= sid - f.base < f.num_segments:
            return f
        return None

    def ids_of(self, file_id: str) -> range:
        """Every id of ``file_id``'s current range (empty if never created)."""
        base, width = self._ranges.get(file_id, (0, 0))
        return range(base, base + width)

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
