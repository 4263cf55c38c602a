"""Time-series sampling of the hierarchy during a run.

A :class:`TierOccupancySampler` is a simulation process that samples
every tier's used bytes (and the event-queue level, if given) at a fixed
virtual-time cadence.  It turns a run into the occupancy timeline that
shows the DMSH behaving as "one big prefetching cache": data flowing in
at the bottom tiers, hot segments bubbling up, evictions draining cold
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.sim.core import Environment, Interrupt, Process
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["TierSample", "TierOccupancySampler"]


@dataclass(frozen=True)
class TierSample:
    """One snapshot of the hierarchy."""

    when: float
    used: dict  # tier name -> bytes resident
    segments: dict  # tier name -> resident segment count
    queue_level: int = 0


class TierOccupancySampler:
    """Samples tier occupancy on a fixed virtual-time cadence."""

    def __init__(
        self,
        env: Environment,
        hierarchy: StorageHierarchy,
        interval: float = 0.05,
        event_queue=None,
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.env = env
        self.hierarchy = hierarchy
        self.interval = interval
        self.event_queue = event_queue
        self.samples: list[TierSample] = []
        self._proc: Optional[Process] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._loop(), name="tier-sampler")

    def stop(self) -> None:
        """Stop sampling, flushing a final sample at the stop instant.

        Without the flush the tail of the run — everything after the last
        whole interval — was invisible in the timeline, so short runs
        (or ones ending right after a burst of placements) under-reported
        final occupancy.
        """
        if self._proc is not None and self._proc.is_alive:
            if not self.samples or self.samples[-1].when < self.env.now:
                self.samples.append(self._snapshot())
            self._proc.interrupt("stop")
        self._proc = None

    def _snapshot(self) -> TierSample:
        return TierSample(
            when=self.env.now,
            used={t.name: t.used for t in self.hierarchy.tiers},
            segments={t.name: t.resident_count for t in self.hierarchy.tiers},
            queue_level=self.event_queue.level if self.event_queue is not None else 0,
        )

    def _loop(self) -> Generator:
        try:
            while True:
                self.samples.append(self._snapshot())
                yield self.env.timeout(self.interval)
        except Interrupt:
            return

    # -- analysis -------------------------------------------------------------
    def peak(self, tier_name: str) -> int:
        """Highest sampled occupancy of one tier."""
        return max((s.used.get(tier_name, 0) for s in self.samples), default=0)

    def series(self, tier_name: str) -> list[tuple[float, int]]:
        """``(time, used_bytes)`` series of one tier."""
        return [(s.when, s.used.get(tier_name, 0)) for s in self.samples]

    def utilisation(self, tier_name: str) -> float:
        """Mean sampled occupancy over the tier's capacity."""
        tier = self.hierarchy.by_name(tier_name)
        if not self.samples or tier.capacity <= 0:
            return 0.0
        mean_used = sum(s.used.get(tier_name, 0) for s in self.samples) / len(self.samples)
        return mean_used / tier.capacity

    def render(self, width: int = 60) -> str:
        """ASCII occupancy strips, one row per tier."""
        if not self.samples:
            return "(no samples)"
        shades = " .:-=+*#%@"
        lines = []
        stride = max(1, len(self.samples) // width)
        picked = self.samples[::stride][:width]
        for tier in self.hierarchy.tiers:
            cap = tier.capacity or 1
            row = "".join(
                shades[min(9, int(9 * s.used.get(tier.name, 0) / cap))] for s in picked
            )
            lines.append(f"{tier.name:>12} |{row}|")
        return "\n".join(lines)
