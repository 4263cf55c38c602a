"""Shared runtime context handed to every prefetcher.

The context is the prefetcher-facing façade of the simulated machine:
the environment/clock, the file namespace, the storage hierarchy, the
fabric and the metrics sink.  Baselines and HFetch alike receive one in
``attach`` and perform all their I/O through it, so every solution is
charged by exactly the same cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.metrics.collector import MetricsCollector
from repro.network.comm import NodeCommunicator
from repro.network.topology import ClusterTopology
from repro.sim.core import Environment
from repro.storage.files import FileSystemModel, SimFile
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.tier import StorageTier

if TYPE_CHECKING:  # typing-only: telemetry is optional per run
    from repro.telemetry.handle import Telemetry

__all__ = ["ReadPlan", "RuntimeContext"]


@dataclass(frozen=True)
class ReadPlan:
    """Where one segment read will be served from, and at what overhead.

    Attributes
    ----------
    tier:
        The tier whose device the read is charged against.
    metadata_cost:
        Additional seconds of lookup latency (e.g. the DHM location
        query HFetch agents perform per read).
    cross_node:
        True when the data sits in a *node-local* tier of another node,
        so the read additionally crosses the fabric.
    """

    tier: StorageTier
    metadata_cost: float = 0.0
    cross_node: bool = False


@dataclass
class RuntimeContext:
    """Everything a prefetcher needs to see of the machine."""

    env: Environment
    fs: FileSystemModel
    hierarchy: StorageHierarchy
    comm: NodeCommunicator
    topology: ClusterTopology
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    seed: int = 2020
    #: live telemetry handle for this run, or None (uninstrumented)
    telemetry: "Optional[Telemetry]" = None

    def origin_tier(self, f: "SimFile | str") -> StorageTier:
        """The tier permanently holding a file's bytes."""
        file = self.fs.get(f) if isinstance(f, str) else f
        try:
            return self.hierarchy.by_name(file.origin)
        except KeyError:
            return self.hierarchy.backing

    def origin_plan(self, f: "SimFile | str") -> ReadPlan:
        """The no-prefetching read plan: straight from the origin."""
        return ReadPlan(tier=self.origin_tier(f))

    def is_hit(self, f: "SimFile | str", served_from: StorageTier) -> bool:
        """Whether serving from ``served_from`` beats the file's origin."""
        origin = self.origin_tier(f)
        return self.hierarchy.tier_index(served_from) < self.hierarchy.tier_index(origin)

    def segment_bytes(self, key: int) -> int:
        """Byte length of segment ``key`` (via its file record)."""
        return self.fs.get(self.fs.file_id_of(key)).segment_bytes(key)
