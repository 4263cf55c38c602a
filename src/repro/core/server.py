"""The HFetch server — component wiring and lifecycle (paper Fig. 1).

One logical server instance per experiment (the paper deploys one per
compute node and collocates it with the application cores; the
simulation's distributed hash map carries the cross-node sharding).
Construction wires together:

  inotify → event queue → hardware monitor (daemons) → file segment
  auditor → placement engine (Algorithm 1) → I/O clients → tiers

plus the agent manager that applications connect to.
"""

from __future__ import annotations

from typing import Optional

from repro.core.agents import Agent, AgentManager
from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.heatmap import HeatmapStore
from repro.core.io_clients import IOClientPool
from repro.core.monitor import HardwareMonitor
from repro.core.placement import PlacementEngine
from repro.dhm.hashmap import DistributedHashMap
from repro.dhm.wal import WriteAheadLog
from repro.events.inotify import SimInotify
from repro.events.queue import EventQueue
from repro.network.comm import NodeCommunicator
from repro.sim.core import Environment
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["HFetchServer"]


class HFetchServer:
    """Fully wired HFetch instance over a given hierarchy."""

    def __init__(
        self,
        env: Environment,
        config: HFetchConfig,
        fs: FileSystemModel,
        hierarchy: StorageHierarchy,
        comm: Optional[NodeCommunicator] = None,
        dhm_shards: int = 1,
        heatmap_store: Optional[HeatmapStore] = None,
        telemetry=None,
    ):
        from repro.telemetry.handle import live

        self.env = env
        self.config = config
        self.fs = fs
        self.hierarchy = hierarchy
        self.comm = comm
        self.telemetry = tel = live(telemetry)

        self.inotify = SimInotify(env)
        self.queue = EventQueue(env, capacity=config.event_queue_capacity)
        self.inotify.subscribe(self.queue)

        self.stats_map = DistributedHashMap(
            shards=dhm_shards,
            wal=WriteAheadLog() if config.dhm_wal else None,
            max_retries=config.dhm_max_retries,
            retry_backoff=config.dhm_retry_backoff,
        )
        self.auditor = FileSegmentAuditor(
            config,
            fs,
            stats_map=self.stats_map,
            heatmaps=heatmap_store if heatmap_store is not None else HeatmapStore(),
        )
        self.monitor = HardwareMonitor(env, config, self.queue, self.auditor, hierarchy)
        # one HFetch server runs per compute node (paper Fig. 1), so the
        # fleet of I/O client threads scales with the nodes in the job
        nodes = comm.topology.compute_nodes if comm is not None else 1
        self.io_clients = IOClientPool(
            env,
            hierarchy,
            comm=comm,
            workers_per_tier=config.io_workers_per_tier * nodes,
            batch_segments=config.io_batch_segments,
            max_retries=config.prefetch_max_retries,
        )
        self.engine = PlacementEngine(env, config, hierarchy, self.auditor, self.io_clients)
        self.agent_manager = AgentManager(
            env, self.auditor, self.inotify, self.io_clients,
            mapping_map=DistributedHashMap(
                shards=dhm_shards,
                max_retries=config.dhm_max_retries,
                retry_backoff=config.dhm_retry_backoff,
            ),
        )
        # writes on watched files invalidate prefetched data (§III-B)
        self.auditor.invalidate_hook = self._invalidate_file
        self._started = False
        if tel is not None:
            self._bind_telemetry(tel)

    def _bind_telemetry(self, tel) -> None:
        """Distribute the live telemetry handle across every component."""
        self.inotify.bind_telemetry(tel)
        self.queue.bind_telemetry(tel)
        self.auditor.bind_telemetry(tel)
        self.monitor.bind_telemetry(tel)
        self.engine.bind_telemetry(tel)
        self.io_clients.bind_telemetry(tel)
        self.hierarchy.bind_telemetry(tel)
        self.stats_map.bind_telemetry(tel, prefix="dhm.stats")
        self.agent_manager.mapping_map.bind_telemetry(tel, prefix="dhm.mapping")
        reg = tel.registry
        reg.gauge("auditor.pending_updates", fn=lambda: self.auditor.pending_updates)
        reg.gauge("auditor.score_updates", fn=lambda: self.auditor.score_updates)
        reg.gauge(
            "auditor.events_processed", fn=lambda: self.auditor.events_processed
        )
        reg.gauge("engine.passes", fn=lambda: self.engine.passes)
        reg.gauge("engine.placed", fn=lambda: self.engine.segments_placed)
        reg.gauge("engine.demoted", fn=lambda: self.engine.segments_demoted)
        reg.gauge("io.bytes_moved", fn=lambda: self.io_clients.bytes_moved)
        reg.gauge("io.moves_failed", fn=lambda: self.io_clients.moves_failed)
        reg.gauge("io.move_retries", fn=lambda: self.io_clients.move_retries)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Spawn monitor daemons, the engine and the I/O client workers."""
        if self._started:
            return
        self._started = True
        self.monitor.start()
        self.engine.start()
        self.io_clients.start()

    def stop(self) -> None:
        """Interrupt all background processes."""
        if not self._started:
            return
        self._started = False
        self.monitor.stop()
        self.engine.stop()
        self.io_clients.stop()

    @property
    def started(self) -> bool:
        """Whether background processes are live."""
        return self._started

    # -- client side --------------------------------------------------------------
    def connect(self, pid: int, node: int = 0) -> Agent:
        """Attach an application process (its ``MPI_Init`` moment)."""
        return self.agent_manager.connect(pid, node)

    # -- internals --------------------------------------------------------------
    def _invalidate_file(self, file_id: str) -> None:
        self.engine.invalidate_file(file_id)
        # stragglers the engine no longer tracks still count as
        # consistency invalidations for the waste analyzer
        self.hierarchy.invalidate_file(file_id, cause="invalidated")

    # -- diagnostics -------------------------------------------------------------
    def metrics(self) -> dict:
        """A flat snapshot of the server's internal counters."""
        return {
            "events_emitted": self.inotify.events_emitted,
            "events_processed": self.auditor.events_processed,
            "events_batched": self.auditor.batched_events,
            "events_dropped": self.queue.dropped,
            "score_updates": self.auditor.score_updates,
            "engine_passes": self.engine.passes,
            "segments_placed": self.engine.segments_placed,
            "segments_demoted": self.engine.segments_demoted,
            "moves_completed": self.io_clients.moves_completed,
            "bytes_moved": self.io_clients.bytes_moved,
            "location_queries": self.agent_manager.location_queries,
            "active_epochs": self.auditor.active_epochs,
            "consumption_rate": self.monitor.consumption_rate(),
            # fault tolerance / error budget
            "moves_failed": self.io_clients.moves_failed,
            "move_retries": self.io_clients.move_retries,
            "demand_fallbacks": self.io_clients.demand_fallbacks,
            "tier_failures": self.hierarchy.tier_failures,
            "segments_rehomed": self.engine.segments_rehomed,
            "dhm_degraded_ops": self.stats_map.degraded_ops
            + self.agent_manager.mapping_map.degraded_ops,
            "dhm_retries": self.stats_map.retries + self.agent_manager.mapping_map.retries,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HFetchServer started={self._started} {self.hierarchy!r}>"
