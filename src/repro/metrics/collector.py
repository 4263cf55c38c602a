"""Run metrics: hit ratios, times, movement volumes.

Hit definition (used consistently across all prefetchers): a segment
read is a **hit** when it is served from a tier *faster* than the file's
origin tier (the tier that permanently holds its bytes — PFS by default,
the burst buffers for staged-in workflows).  A read served from the
origin itself, or from a slower path, is a miss.  This matches the
paper's usage, where e.g. Fig. 6 reports hit ratios for data staged in
the burst buffers and served from RAM/NVMe.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MetricsCollector", "RunResult"]


@dataclass
class RunResult:
    """Summary of one workload execution under one prefetcher."""

    solution: str
    workload: str
    end_to_end_time: float
    read_time: float
    hit_ratio: float
    hits: int
    misses: int
    bytes_read: int
    bytes_prefetched: int
    #: hits per *serving* tier; misses land in :attr:`tier_misses` keyed
    #: by the file's *origin* tier, so the two together cover every read:
    #: ``sum(tier_hits.values()) + sum(tier_misses.values()) == hits + misses``
    tier_hits: dict = field(default_factory=dict)
    tier_misses: dict = field(default_factory=dict)
    ram_peak_bytes: float = 0.0
    evictions: int = 0
    extra: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)

    def row(self, verbose: bool = False) -> dict:
        """Flat dict for table rendering.

        With ``verbose=True`` the fault budget and the telemetry headline
        numbers (when the run was instrumented) are flattened in as
        ``fault:*`` / ``tel:*`` columns.
        """
        row = {
            "solution": self.solution,
            "workload": self.workload,
            "time_s": round(self.end_to_end_time, 4),
            "read_time_s": round(self.read_time, 4),
            "hit_ratio_%": round(100.0 * self.hit_ratio, 2),
            "ram_peak_MB": round(self.ram_peak_bytes / (1 << 20), 1),
            "evictions": self.evictions,
        }
        if verbose:
            for kind in sorted(self.faults):
                row[f"fault:{kind}"] = self.faults[kind]
            telemetry = self.extra.get("telemetry")
            if isinstance(telemetry, dict):
                for key, value in telemetry.items():
                    row[f"tel:{key}"] = (
                        round(value, 6) if isinstance(value, float) else value
                    )
        return row


class MetricsCollector:
    """Accumulates per-read observations during a run."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.read_time = 0.0
        self.tier_hits: dict[str, int] = defaultdict(int)
        self.tier_misses: dict[str, int] = defaultdict(int)
        self.per_process_reads: dict[int, int] = defaultdict(int)
        # fault / degradation accounting (chaos runs; empty otherwise)
        self.faults: dict[str, int] = defaultdict(int)

    def record_fault(self, kind: str, n: int = 1) -> None:
        """Count one injected fault or degradation outcome."""
        self.faults[kind] += n

    # -- recording -------------------------------------------------------------
    def record_read(
        self,
        pid: int,
        tier_name: str,
        nbytes: int,
        duration: float,
        hit: bool,
        origin_name: str,
    ) -> None:
        """One segment read observation.

        A hit is counted against the *serving* tier (``tier_name``); a
        miss is counted against the file's *origin* tier
        (``origin_name``) — the attribution engine needs the miss side
        keyed by where the bytes actually came from, and the two maps
        together account for every read.
        """
        if hit:
            self.hits += 1
            self.tier_hits[tier_name] += 1
        else:
            self.misses += 1
            self.tier_misses[origin_name] += 1
        self.bytes_read += nbytes
        self.read_time += duration
        self.per_process_reads[pid] += 1

    # -- summaries --------------------------------------------------------------
    @property
    def total_reads(self) -> int:
        """Segment reads observed."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over total reads (0 when nothing read)."""
        total = self.total_reads
        return self.hits / total if total else 0.0

    def finalize(
        self,
        solution: str,
        workload: str,
        end_to_end_time: float,
        bytes_prefetched: int = 0,
        ram_peak_bytes: float = 0.0,
        evictions: int = 0,
        extra: Optional[dict] = None,
        faults: Optional[dict] = None,
    ) -> RunResult:
        """Freeze the run into a :class:`RunResult`."""
        return RunResult(
            solution=solution,
            workload=workload,
            end_to_end_time=end_to_end_time,
            read_time=self.read_time,
            hit_ratio=self.hit_ratio,
            hits=self.hits,
            misses=self.misses,
            bytes_read=self.bytes_read,
            bytes_prefetched=bytes_prefetched,
            tier_hits=dict(self.tier_hits),
            tier_misses=dict(self.tier_misses),
            ram_peak_bytes=ram_peak_bytes,
            evictions=evictions,
            extra=dict(extra or {}),
            faults=dict(faults if faults is not None else self.faults),
        )

