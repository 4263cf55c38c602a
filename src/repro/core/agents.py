"""HFetch agents and the agent manager (paper §III-A.4, Fig. 2).

Every application process links an :class:`Agent` that intercepts its
open/read/close calls (POSIX, MPI-IO and HDF5 in the prototype; in the
simulation the workload runner calls the agent directly).  Agents talk
to the :class:`AgentManager` on their node's HFetch server to:

* begin/end *prefetching epochs* — an ``fopen`` with read flags starts
  an epoch (the first opener installs the inotify watch, the last closer
  removes it; write-only opens are ignored, Fig. 2's ``IGNORE``);
* acquire the location of prefetched file segments for each read
  request (a distributed-hash-map lookup, charged to the caller).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.auditor import FileSegmentAuditor
from repro.core.io_clients import IOClientPool
from repro.dhm.hashmap import DistributedHashMap
from repro.events.inotify import SimInotify
from repro.events.types import EventType
from repro.sim.core import Environment

__all__ = ["OpenMode", "Agent", "AgentManager"]


class OpenMode(enum.Flag):
    """Simplified open flags — what the agent inspects."""

    READ = enum.auto()
    WRITE = enum.auto()
    READ_WRITE = READ | WRITE


class AgentManager:
    """Server-side endpoint the agents talk to."""

    def __init__(
        self,
        env: Environment,
        auditor: FileSegmentAuditor,
        inotify: SimInotify,
        io_clients: IOClientPool,
        mapping_map: Optional[DistributedHashMap] = None,
    ):
        self.env = env
        self.auditor = auditor
        self.inotify = inotify
        self.io_clients = io_clients
        # Every segment->tier query is charged as a ``get`` on this map,
        # but nothing is ever written to it: the answer comes from the
        # hierarchy's ledger and the I/O clients' in-flight map (see
        # ``locate``).  Only its cost model and shard state matter.
        self.mapping_map = mapping_map if mapping_map is not None else DistributedHashMap(shards=1)
        self.mapping_map.shard_key = auditor.fs.segment_key
        self._agents: dict[int, "Agent"] = {}
        # instrumentation
        self.location_queries = 0

    # -- agent registry -----------------------------------------------------
    def connect(self, pid: int, node: int = 0) -> "Agent":
        """Create (or return) the agent of application process ``pid``."""
        agent = self._agents.get(pid)
        if agent is None:
            agent = Agent(pid=pid, node=node, manager=self)
            self._agents[pid] = agent
        return agent

    @property
    def connected_agents(self) -> int:
        """Number of attached application processes."""
        return len(self._agents)

    # -- epochs -----------------------------------------------------------------
    def start_epoch(self, file_id: str) -> None:
        """An agent observed an fopen with read flags."""
        first = self.auditor.start_epoch(file_id)
        if first:
            self.inotify.add_watch(file_id)

    def end_epoch(self, file_id: str) -> None:
        """An agent observed the matching fclose."""
        last = self.auditor.end_epoch(file_id, now=self.env.now)
        if last:
            self.inotify.rm_watch(file_id)

    # -- location queries -----------------------------------------------------------
    def locate(self, key: int, node: int = 0) -> tuple[Optional[str], float]:
        """Where is ``key`` served from right now?

        Returns ``(tier_name_or_None, query_cost_seconds)``.  The cost is
        the DHM lookup latency (local or remote shard); the caller charges
        it to the simulation clock.
        """
        self.location_queries += 1
        before = self.mapping_map.total_cost
        # the mapping lives logically in the DHM: charge a get per query
        self.mapping_map.get(key, from_shard=node % self.mapping_map.shards)
        cost = self.mapping_map.total_cost - before
        return self.io_clients.serving_tier_name(key), cost


class Agent:
    """Client-side interceptor attached to one application process."""

    def __init__(self, pid: int, node: int, manager: AgentManager):
        self.pid = pid
        self.node = node
        self.manager = manager
        self._open_files: dict[str, OpenMode] = {}
        # instrumentation
        self.reads_intercepted = 0

    @property
    def env(self) -> Environment:
        """The simulation environment (via the manager)."""
        return self.manager.env

    # -- intercepted calls -------------------------------------------------------
    def open(self, file_id: str, mode: OpenMode = OpenMode.READ) -> None:
        """Intercept ``fopen``; read flags begin a prefetching epoch."""
        if file_id in self._open_files:
            raise ValueError(f"pid {self.pid} double-opened {file_id}")
        self._open_files[file_id] = mode
        if mode & OpenMode.READ:
            self.manager.start_epoch(file_id)
            self.manager.inotify.emit(
                EventType.OPEN, file_id, node=self.node, pid=self.pid
            )
        # write-only opens are IGNOREd (Fig. 2) — no epoch, no watch

    def read(self, file_id: str, offset: int, size: int) -> None:
        """Intercept ``fread``: emit the enriched system event."""
        if file_id not in self._open_files:
            raise ValueError(f"pid {self.pid} read on unopened {file_id}")
        self.reads_intercepted += 1
        self.manager.inotify.emit(
            EventType.READ, file_id, offset=offset, size=size,
            node=self.node, pid=self.pid,
        )

    def write(self, file_id: str, offset: int, size: int) -> None:
        """Intercept a write: emits the event that triggers invalidation."""
        if file_id not in self._open_files:
            raise ValueError(f"pid {self.pid} wrote to unopened {file_id}")
        self.manager.inotify.emit(
            EventType.WRITE, file_id, offset=offset, size=size,
            node=self.node, pid=self.pid,
        )

    def close(self, file_id: str) -> None:
        """Intercept ``fclose``; ends the epoch for read-opened files."""
        mode = self._open_files.pop(file_id, None)
        if mode is None:
            raise ValueError(f"pid {self.pid} closed unopened {file_id}")
        if mode & OpenMode.READ:
            self.manager.inotify.emit(
                EventType.CLOSE, file_id, node=self.node, pid=self.pid
            )
            self.manager.end_epoch(file_id)

    def locate(self, key: int) -> tuple[Optional[str], float]:
        """Ask the manager where a segment is served from."""
        return self.manager.locate(key, node=self.node)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Agent pid={self.pid} node={self.node} open={len(self._open_files)}>"
