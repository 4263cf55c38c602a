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

#: I/O client worker threads per tier on each compute node (the paper's
#: Fig. 4(a) configuration gives HFetch four threads).
IO_WORKERS_PER_TIER = 4


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
        telemetry=None,
    ):
        self.env = env
        self.config = config
        self.fs = fs
        self.hierarchy = hierarchy
        self.comm = comm
        self.telemetry = tel = telemetry

        self.inotify = SimInotify(env)
        self.queue = EventQueue(env, capacity=config.event_queue_capacity)
        self.inotify.subscribe(self.queue)

        self.stats_map = DistributedHashMap(
            shards=dhm_shards,
            wal=WriteAheadLog() if config.dhm_wal else None,
        )
        self.auditor = FileSegmentAuditor(config, fs, stats_map=self.stats_map)
        self.monitor = HardwareMonitor(env, config, self.queue, self.auditor, hierarchy)
        # one HFetch server runs per compute node (paper Fig. 1), so the
        # fleet of I/O client threads scales with the nodes in the job
        nodes = comm.topology.compute_nodes if comm is not None else 1
        self.io_clients = IOClientPool(
            env,
            hierarchy,
            comm=comm,
            workers_per_tier=IO_WORKERS_PER_TIER * nodes,
        )
        self.engine = PlacementEngine(env, config, hierarchy, self.auditor, self.io_clients)
        self.agent_manager = AgentManager(
            env, self.auditor, self.inotify, self.io_clients,
            mapping_map=DistributedHashMap(shards=dhm_shards),
        )
        # writes on watched files invalidate prefetched data (§III-B)
        self.auditor.invalidate_hook = self.engine.invalidate_file
        self._started = False
        if tel is not None:
            self._bind_telemetry(tel)

    def _bind_telemetry(self, tel) -> None:
        """Distribute the live telemetry handle across every component
        and make :meth:`metrics` the handle's gauge source."""
        self.inotify.bind_telemetry(tel)
        self.queue.bind_telemetry(tel)
        self.auditor.bind_telemetry(tel)
        self.monitor.telemetry = tel
        self.engine.bind_telemetry(tel)
        self.io_clients.bind_telemetry(tel)
        self.hierarchy.prov = tel.provenance
        self.stats_map.bind_telemetry(tel, prefix="dhm.stats")
        self.agent_manager.mapping_map.bind_telemetry(tel, prefix="dhm.mapping")
        tel.registry.add_gauges(self.metrics)

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

    # -- diagnostics -------------------------------------------------------------
    def metrics(self) -> dict:
        """The server's counters and levels, keyed by gauge name.

        The one list of them: a telemetry run samples it as the gauge
        timeline, and everything else reads it directly.
        """
        queue, monitor, auditor = self.queue, self.monitor, self.auditor
        engine, io, hier = self.engine, self.io_clients, self.hierarchy
        out = {
            "inotify.events_emitted": self.inotify.events_emitted,
            "queue.pushed": queue.produced,
            "queue.dropped": queue.dropped,
            "queue.level": queue.level,
            "queue.max_level": queue.max_level,
            "monitor.busy_time_s": monitor.busy_time,
            "monitor.file_events": monitor.file_events,
            "auditor.events_processed": auditor.events_processed,
            "auditor.score_updates": auditor.score_updates,
            "auditor.pending_updates": auditor.pending_updates,
            "auditor.active_epochs": auditor.active_epochs,
            "engine.passes": engine.passes,
            "engine.placed": engine.segments_placed,
            "engine.demoted": engine.segments_demoted,
            "engine.rehomed": engine.segments_rehomed,
            "io.backlog": io.backlog,
            "io.moves_completed": io.moves_completed,
            "io.bytes_moved": io.bytes_moved,
            "io.moves_failed": io.moves_failed,
            "io.move_retries": io.move_retries,
            "hierarchy.placements": hier.placements,
            "hierarchy.evictions": hier.evictions,
            "hierarchy.promotions": hier.promotions,
            "hierarchy.demotions": hier.demotions,
            "hierarchy.segments_displaced": hier.segments_displaced,
            "hierarchy.tier_failures": hier.tier_failures,
            "agents.location_queries": self.agent_manager.location_queries,
        }
        for tier in hier.tiers:
            out[f"tier.{tier.name}.used"] = tier.used
            out[f"tier.{tier.name}.resident"] = tier.resident_count
        for prefix, dhm in (
            ("dhm.stats", self.stats_map),
            ("dhm.mapping", self.agent_manager.mapping_map),
        ):
            out[f"{prefix}.local_ops"] = dhm.local_ops
            out[f"{prefix}.remote_ops"] = dhm.remote_ops
            out[f"{prefix}.total_cost_s"] = dhm.total_cost
            out[f"{prefix}.degraded_ops"] = dhm.degraded_ops
            out[f"{prefix}.retries"] = dhm.retries
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HFetchServer started={self._started} {self.hierarchy!r}>"
