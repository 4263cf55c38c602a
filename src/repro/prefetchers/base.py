"""The common prefetcher interface.

Every solution the paper evaluates — HFetch, the serial/parallel
read-ahead prefetchers (Fig. 4(a)), the in-memory optimal/naive pair
(Fig. 4(b)), the application-centric prefetcher (Fig. 5), Stacker and
KnowAc (Fig. 6), and the no-prefetching baseline — implements this
interface and is driven identically by the workload runner:

1. ``on_open(pid, node, file_id)`` — the process opened a file for
   reading.
2. ``plan_read(pid, node, key)`` — *before* each segment read (``key``
   is the segment's id): where will it be served from?  (This is the
   only place a solution can make a read faster.)
3. ``on_access(pid, node, file_id, offset, size)`` — *after* the read:
   observe the access (client-pull solutions trigger their fetches here;
   HFetch's events flow through inotify instead).
4. ``on_close(pid, node, file_id)`` — the process closed the file.

Prefetch I/O performed by a solution must go through the shared tiers
and fabric of the :class:`~repro.runtime.context.RuntimeContext`, so
prefetching traffic and application reads contend for the same simulated
hardware — the interference the paper's figures hinge on.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.prefetchers.util import ManagedCache
from repro.runtime.context import ReadPlan, RuntimeContext

__all__ = ["Prefetcher"]


class Prefetcher:
    """Base class of all evaluated solutions."""

    #: Display name used in result tables.
    name: str = "base"

    def __init__(self) -> None:
        self.ctx: Optional[RuntimeContext] = None
        #: the solution's own RAM prefetch cache, if it keeps a single one
        self.cache: Optional[ManagedCache] = None
        self.bytes_prefetched = 0
        self.prefetch_ops = 0

    # -- lifecycle -------------------------------------------------------------
    def attach(self, ctx: RuntimeContext) -> None:
        """Bind to the machine; background processes start here."""
        self.ctx = ctx

    def detach(self) -> None:
        """Stop background processes (end of workflow)."""

    def on_workload(self, workload) -> None:
        """Receive the static workload description.

        Online solutions ignore it.  Clairvoyant baselines (KnowAc, the
        in-memory optimal prefetcher) treat it as their profiled /
        oracle knowledge of the access streams.
        """

    # -- the four runner hooks ----------------------------------------------------
    def on_open(self, pid: int, node: int, file_id: str) -> None:
        """A process opened ``file_id`` for reading."""

    def plan_read(self, pid: int, node: int, key: int) -> ReadPlan:
        """Serving plan for one segment read (called before the read):
        the managed cache on a hit, else the file's origin."""
        return self._plan(self.cache, key)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        """A read completed (called after the read is served)."""

    def on_write(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        """A write completed.  Consistency-aware solutions invalidate
        any prefetched copy of the written range (HFetch, paper §III-B);
        the default is a no-op."""

    def on_close(self, pid: int, node: int, file_id: str) -> None:
        """A process closed ``file_id``."""

    # -- accounting -------------------------------------------------------------
    @property
    def ram_peak_bytes(self) -> float:
        """Peak bytes this solution's own cache held in RAM (the runner
        reports the larger of this and the hierarchy's RAM ledger)."""
        return float(self.cache.peak_used) if self.cache is not None else 0.0

    @property
    def cache_evictions(self) -> int:
        """Evictions performed by the solution's own cache."""
        return self.cache.evictions if self.cache is not None else 0

    def profile_cost(self) -> float:
        """Extra offline cost (seconds) charged outside the run.

        Zero for online solutions; KnowAc's profiling run reports here
        (the paper plots it as a stacked "Profile-Cost" bar).
        """
        return 0.0

    # -- the ManagedCache protocol shared by client-pull baselines ------------------
    def _plan(self, cache: Optional[ManagedCache], key: int) -> ReadPlan:
        """Serve ``key`` from ``cache`` on a hit (LRU bump), else from its origin."""
        assert self.ctx is not None
        if cache is not None and cache.ready(key):
            cache.touch(key)
            return ReadPlan(tier=cache.tier)
        return self.ctx.origin_plan(self.ctx.fs.file_id_of(key))

    def _start_fetch(self, cache: ManagedCache, key: int) -> bool:
        """Reserve room for ``key`` in ``cache`` and start its origin fetch;
        False when it is known already, empty, or cannot fit."""
        assert self.ctx is not None
        if cache.known(key):
            return False
        nbytes = self.ctx.segment_bytes(key)
        if nbytes == 0 or not cache.begin_fetch(key, nbytes):
            return False
        self.ctx.env.process(self._fetch(cache, key, nbytes), name=f"{self.name}-fetch")
        return True

    def _fleet_window(self, window: int, workload) -> int:
        """A per-rank ``window`` capped so the whole fleet's in-flight
        target fits ``self.cache`` (otherwise it evicts entries before
        their readers arrive and thrashes)."""
        if self.cache is None or self.ctx is None or not workload.num_processes:
            return window
        slots = int(self.cache.budget // max(1, self.ctx.fs.default_segment_size))
        return max(1, min(window, slots // (2 * workload.num_processes) or 1))

    def _fetch_ahead(self, cache: ManagedCache, pid: int, trace: list, cursors: dict,
                     file_id: str, offset: int, size: int, window: int) -> None:
        """Clairvoyant fetch-ahead along ``pid``'s segment ``trace``:
        advance its cursor past the segments just read, then start up to
        ``window`` fetches among the next ``4 * window`` accesses."""
        assert self.ctx is not None
        consumed = len(self.ctx.fs.get(file_id).read_segments(offset, size))
        cursor = cursors[pid] = min(len(trace), cursors[pid] + consumed)
        launched = 0
        for key in trace[cursor : cursor + 4 * window]:
            if launched >= window:
                break
            if self._start_fetch(cache, key):
                launched += 1

    def _fetch(self, cache: ManagedCache, key: int, nbytes: int) -> Generator:
        """Background process: origin → cache tier at prefetch priority."""
        assert self.ctx is not None
        src = self.ctx.origin_tier(self.ctx.fs.file_id_of(key))
        yield from src.read(nbytes, priority=src.pipe.PREFETCH)
        yield from cache.tier.write(nbytes, priority=cache.tier.pipe.PREFETCH)
        cache.commit_fetch(key)
        self.bytes_prefetched += nbytes
        self.prefetch_ops += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"
