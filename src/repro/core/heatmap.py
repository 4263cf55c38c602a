"""File heatmaps — the per-file score picture (paper §III-C).

A *file heatmap* is the vector of current segment scores of one file;
"the hotter the region of a file in the heatmap the more important that
region is for data access optimization".  HFetch keeps heatmaps in
memory for the duration of a prefetching epoch, can persist them on
close ("resembling a file access history"), and on re-open loads the
stored heatmap so new accesses *evolve* it further.  Heatmaps are
deleted when the workflow ends.  Like the paper's prototype, the store
keeps only the latest (merged) heatmap per file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FileHeatmap", "HeatmapStore"]


@dataclass
class FileHeatmap:
    """Score-per-segment snapshot of one file."""

    file_id: str
    scores: np.ndarray  # float64, one entry per segment
    captured_at: float = 0.0
    epoch: int = 0

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1:
            raise ValueError("a heatmap is a 1-D score vector")
        if self.scores.size and self.scores.min() < 0:
            raise ValueError("scores are non-negative by construction")

    @property
    def num_segments(self) -> int:
        """Segments covered."""
        return int(self.scores.size)

    def hottest(self, k: int = 1) -> list[int]:
        """Indices of the ``k`` hottest segments, hottest first.

        Top-k selection via ``argpartition`` — O(n) to isolate the k
        hottest plus O(k log k) to order them, instead of a full
        O(n log n) sort.  Ties are broken arbitrarily (as before).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self.scores
        n = scores.size
        k = min(k, n)
        if k == 0:
            return []
        if k < n:
            top = np.argpartition(scores, n - k)[n - k :]
        else:
            top = np.arange(n)
        order = top[np.argsort(scores[top])[::-1]]
        return [int(i) for i in order]

    def merge(self, other: "FileHeatmap", decay: float = 0.5) -> "FileHeatmap":
        """Evolve this (historical) heatmap with a newer observation.

        The stored history is decayed by ``decay`` and the new scores are
        added — "New accesses will evolve the heatmap further" (§III-C).
        Differing lengths are right-padded with zeros.
        """
        if other.file_id != self.file_id:
            raise ValueError("cannot merge heatmaps of different files")
        n = max(self.scores.size, other.scores.size)
        merged = np.zeros(n, dtype=np.float64)
        merged[: self.scores.size] += self.scores * decay
        merged[: other.scores.size] += other.scores
        return FileHeatmap(
            file_id=self.file_id,
            scores=merged,
            captured_at=max(self.captured_at, other.captured_at),
            epoch=max(self.epoch, other.epoch) + 1,
        )

    # -- (de)serialisation -------------------------------------------------
    def to_json(self) -> str:
        """Serialise for the history metafile."""
        return json.dumps(
            {
                "file_id": self.file_id,
                "captured_at": self.captured_at,
                "epoch": self.epoch,
                "scores": self.scores.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FileHeatmap":
        """Parse a history metafile payload."""
        raw = json.loads(text)
        return cls(
            file_id=raw["file_id"],
            scores=np.asarray(raw["scores"], dtype=np.float64),
            captured_at=float(raw["captured_at"]),
            epoch=int(raw["epoch"]),
        )


class HeatmapStore:
    """Keeps heatmaps per file (in memory, optionally on disk).

    The disk form is the paper's "enriched metafile" stored alongside the
    raw file.  Only the latest heatmap per file is kept — the paper's
    prototype behaviour.
    """

    def __init__(self, directory: "str | Path | None" = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._maps: dict[str, FileHeatmap] = {}

    def _path_for(self, file_id: str) -> Optional[Path]:
        if self.directory is None:
            return None
        safe = file_id.strip("/").replace("/", "__")
        return self.directory / f"{safe}.heatmap.json"

    def save(self, heatmap: FileHeatmap) -> None:
        """Store (and persist, if file-backed) the latest heatmap."""
        existing = self._maps.get(heatmap.file_id)
        if existing is not None:
            heatmap = existing.merge(heatmap)
        self._maps[heatmap.file_id] = heatmap
        path = self._path_for(heatmap.file_id)
        if path is not None:
            path.write_text(heatmap.to_json())

    def load(self, file_id: str) -> Optional[FileHeatmap]:
        """Fetch the stored heatmap for a re-opened file, if any."""
        hm = self._maps.get(file_id)
        if hm is None and self.directory is not None:
            path = self._path_for(file_id)
            if path is not None and path.exists():
                hm = FileHeatmap.from_json(path.read_text())
                self._maps[file_id] = hm
        return hm

    def delete(self, file_id: str) -> None:
        """Drop a file's heatmap (workflow teardown)."""
        self._maps.pop(file_id, None)
        path = self._path_for(file_id)
        if path is not None and path.exists():
            path.unlink()

    def clear(self) -> None:
        """Heatmaps get deleted once the workflow ends (§III-C)."""
        for file_id in list(self._maps):
            self.delete(file_id)

    def __len__(self) -> int:
        return len(self._maps)

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._maps
