"""Per-segment access statistics.

For every file segment the auditor maintains (paper §III-A.2): its
access *frequency*, when it was *last accessed*, and which segment
access *preceded* it (segment sequencing).  These records live in the
distributed hash map and are updated atomically per observed event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.scoring import segment_score
from repro.storage.segments import SegmentKey

__all__ = ["SegmentStats"]


@dataclass
class SegmentStats:
    """Mutable access record of one file segment.

    Attributes
    ----------
    key:
        The segment this record describes.
    nbytes:
        Byte size of the segment (the last segment of a file is short).
    refs:
        Total reference count ``n`` since the record was created — feeds
        Eq. 1's decay exponent.
    times:
        Ring of the most recent access timestamps (the ``k`` window of
        Eq. 1; older accesses age out of the window but remain counted
        in ``refs``).
    last_access:
        Timestamp of the most recent access (recency).
    prev:
        Key of the segment whose access preceded this one within the
        same file — the sequencing link that gives HFetch "a logical map
        of which segments are connected to one another".
    successors:
        Observed follow-on counts ``{next_segment: times}`` — the forward
        view of the sequencing chain, used for pipelined lookahead.
    best_successor:
        The most frequently observed follow-on segment (the first one
        observed among equal counts), kept current by
        :meth:`link_successor` so the engine's lookahead reads it in O(1).
    """

    key: SegmentKey
    nbytes: int
    max_history: int = 16
    refs: int = 0
    times: deque = field(default_factory=deque)
    last_access: float = float("-inf")
    prev: Optional[SegmentKey] = None
    successors: dict = field(default_factory=dict)
    best_successor: Optional[SegmentKey] = None

    def __post_init__(self) -> None:
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")
        if self.nbytes < 0:
            raise ValueError("segment size must be non-negative")

    def record(self, now: float, prev: Optional[SegmentKey] = None) -> None:
        """Register one access at time ``now`` (monotonic per segment)."""
        if now < self.last_access:
            # Events can arrive slightly out of order through the queue;
            # clamp rather than corrupt the window.
            now = self.last_access
        self.refs += 1
        self.times.append(now)
        while len(self.times) > self.max_history:
            self.times.popleft()
        self.last_access = now
        if prev is not None and prev != self.key:
            self.prev = prev

    def link_successor(self, nxt: SegmentKey) -> None:
        """Record that ``nxt`` was accessed right after this segment."""
        if nxt == self.key:
            return
        successors = self.successors
        count = successors.get(nxt, 0) + 1
        successors[nxt] = count
        best = self.best_successor
        if best == nxt:
            return
        if best is None or count > successors[best]:
            self.best_successor = nxt
        elif count == successors[best]:
            # a tie goes to the first-inserted key, as ``max`` breaks it
            self.best_successor = max(successors.items(), key=lambda kv: kv[1])[0]

    def most_likely_successor(self) -> Optional[SegmentKey]:
        """The most frequently observed follow-on segment, if any."""
        return self.best_successor

    def score(self, now: float, p: float = 2.0) -> float:
        """Eq. 1 score at time ``now``."""
        if self.refs == 0:
            return 0.0
        return segment_score(self.times, self.refs, now, p)

    def flat_rows(self, now: float):
        """``(ages, refs)`` rows for the vectorised batch scorer."""
        return [max(0.0, now - t) for t in self.times], self.refs

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SegmentStats {self.key} refs={self.refs} "
            f"last={self.last_access:g} prev={self.prev}>"
        )
