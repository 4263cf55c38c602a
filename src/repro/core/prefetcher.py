"""HFetch as a runner-pluggable prefetcher.

Adapts :class:`~repro.core.server.HFetchServer` to the common
:class:`~repro.prefetchers.base.Prefetcher` interface, so the full
server-push pipeline (inotify events → monitor daemons → auditor →
placement engine → I/O clients) runs behind exactly the same four hooks
the baselines implement.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import HFetchConfig
from repro.events.types import EventType
from repro.core.server import HFetchServer
from repro.prefetchers.base import Prefetcher
from repro.runtime.context import ReadPlan, RuntimeContext

__all__ = ["HFetchPrefetcher"]


class HFetchPrefetcher(Prefetcher):
    """The paper's system, behind the common interface."""

    name = "HFetch"

    def __init__(self, config: Optional[HFetchConfig] = None, dhm_shards: int = 4):
        super().__init__()
        self.config = config if config is not None else HFetchConfig()
        self.dhm_shards = dhm_shards
        self.server: Optional[HFetchServer] = None

    # -- lifecycle -----------------------------------------------------------
    def attach(self, ctx: RuntimeContext) -> None:
        super().attach(ctx)
        self.server = HFetchServer(
            ctx.env,
            self.config,
            ctx.fs,
            ctx.hierarchy,
            comm=ctx.comm,
            dhm_shards=self.dhm_shards,
            telemetry=ctx.telemetry,
        )
        self.server.start()

    def detach(self) -> None:
        if self.server is not None:
            self.server.stop()

    # -- runner hooks ------------------------------------------------------------
    def on_open(self, pid: int, node: int, file_id: str) -> None:
        assert self.server is not None
        self.server.connect(pid, node).open(file_id)

    def plan_read(self, pid: int, node: int, key: int) -> ReadPlan:
        assert self.server is not None and self.ctx is not None
        agent = self.server.connect(pid, node)
        tier_name, query_cost = agent.locate(key)
        if tier_name is None:
            return ReadPlan(
                tier=self.ctx.origin_tier(self.ctx.fs.file_id_of(key)),
                metadata_cost=query_cost,
            )
        tier = self.ctx.hierarchy.by_name(tier_name)
        # node-local tiers of another node are reachable over the fabric
        cross = tier.profile.local and self.server.auditor.home_node(key) != node
        return ReadPlan(tier=tier, metadata_cost=query_cost, cross_node=cross)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.server is not None
        self.server.connect(pid, node).read(file_id, offset, size)

    def on_write(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.server is not None
        agent = self.server.connect(pid, node)
        # the write event reaches the auditor through inotify and
        # invalidates previously prefetched data (§III-B); files the
        # process has not opened are external writers — the watch still
        # sees them if any reader holds the file open
        if file_id in agent._open_files:
            agent.write(file_id, offset, size)
        else:
            self.server.inotify.emit(
                EventType.WRITE, file_id, offset=offset, size=size, node=node, pid=pid
            )

    def on_close(self, pid: int, node: int, file_id: str) -> None:
        assert self.server is not None
        self.server.connect(pid, node).close(file_id)

    # -- accounting --------------------------------------------------------------
    @property
    def bytes_prefetched(self) -> int:  # type: ignore[override]
        """Bytes moved by the I/O clients."""
        return self.server.io_clients.bytes_moved if self.server is not None else 0

    @bytes_prefetched.setter
    def bytes_prefetched(self, value: int) -> None:
        # the base class initialiser assigns 0; the real counter lives in
        # the I/O client pool, so the assignment is accepted and ignored
        pass

    def metrics(self) -> dict:
        """Server-internal counters (events, passes, movements...)."""
        return self.server.metrics() if self.server is not None else {}
