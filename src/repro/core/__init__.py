"""The HFetch core — the paper's primary contribution.

Component map (paper Fig. 1 / §III-A):

* :class:`~repro.core.monitor.HardwareMonitor` — daemon pool consuming
  the system-generated event queue.
* :class:`~repro.core.auditor.FileSegmentAuditor` — per-segment access
  statistics (frequency, recency, sequencing) in the distributed hash
  map; file heatmaps; segment→tier mappings.
* :class:`~repro.core.scoring` — Eq. 1 segment scoring (exact scalar and
  vectorised forms).
* :class:`~repro.core.placement.PlacementEngine` — Algorithm 1
  hierarchical data placement with interval / update-count triggers.
* :class:`~repro.core.io_clients.IOClientPool` — per-tier data movers
  executing the placement plan (pipelined tier-to-tier fetches).
* :class:`~repro.core.agents.Agent` / ``AgentManager`` — application
  interception (open/read/close), prefetching epochs, placement queries.
* :class:`~repro.core.server.HFetchServer` — wiring and lifecycle.
* :class:`~repro.core.prefetcher.HFetchPrefetcher` — the adapter that
  plugs HFetch into the common workload-runner interface shared with
  every baseline prefetcher.
"""

from repro.core.agents import Agent, AgentManager
from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.heatmap import FileHeatmap, HeatmapStore
from repro.core.io_clients import IOClientPool, MoveInstruction
from repro.core.monitor import HardwareMonitor
from repro.core.placement import PlacementEngine
from repro.core.prefetcher import HFetchPrefetcher
from repro.core.scoring import batch_scores, segment_score
from repro.core.server import HFetchServer
from repro.core.stats import SegmentStats

__all__ = [
    "Agent",
    "AgentManager",
    "FileHeatmap",
    "FileSegmentAuditor",
    "HFetchConfig",
    "HFetchPrefetcher",
    "HFetchServer",
    "HardwareMonitor",
    "HeatmapStore",
    "IOClientPool",
    "MoveInstruction",
    "PlacementEngine",
    "SegmentStats",
    "batch_scores",
    "segment_score",
]
