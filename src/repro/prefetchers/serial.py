"""Client-pull read-ahead prefetchers (Fig. 4(a)'s Serial and the base
of Parallel).

On every application read of segment *k* the prefetcher enqueues the
next ``window`` segments of the file; a fixed pool of prefetching
threads drains the queue, fetching origin → RAM in batched
(scatter-gather) operations of up to ``batch_segments`` segments per
I/O.  The *serial* variant has a single thread — "the serial prefetcher
can only bring one data piece at a time and its miss ratio is higher
since reading from RAM is faster than fetching data from PFS" — so its
delivery bandwidth cannot match the aggregate consumption rate of the
readers; the *parallel* variant (four threads, the paper's
configuration) overlaps fetches almost perfectly.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.context import RuntimeContext
from repro.sim.core import Interrupt, Process
from repro.sim.resources import Store

__all__ = ["SerialPrefetcher"]


class SerialPrefetcher(Prefetcher):
    """Read-ahead into RAM with ``workers`` system-wide fetch threads."""

    name = "Serial"
    workers = 1

    def __init__(
        self,
        window: int = 8,
        ram_budget: Optional[float] = None,
        batch_segments: int = 8,
    ):
        super().__init__()
        if window < 1:
            raise ValueError("read-ahead window must be >= 1")
        if batch_segments < 1:
            raise ValueError("batch_segments must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        self.batch_segments = batch_segments
        self._queue: Optional[Store] = None
        self._queued: set[int] = set()
        self._procs: list[Process] = []
        # reader progress per (pid, file), as the furthest segment id
        # read: fetching a segment the reader has already passed is pure
        # waste, so stale queue entries are skipped at pop time
        self._progress: dict[tuple[int, str], int] = {}
        self.stale_skipped = 0

    # -- lifecycle ------------------------------------------------------------
    def attach(self, ctx: RuntimeContext) -> None:
        super().attach(ctx)
        ram = ctx.hierarchy.by_name("RAM")
        budget = self.ram_budget if self.ram_budget is not None else ram.capacity
        self.cache = ManagedCache(ram, budget)
        self._queue = Store(ctx.env)
        for w in range(self.workers):
            proc = ctx.env.process(self._worker(), name=f"{self.name}-worker-{w}")
            self._procs.append(proc)

    def detach(self) -> None:
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("shutdown")
        self._procs.clear()

    # -- runner hooks -------------------------------------------------------------
    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.ctx is not None and self._queue is not None
        f = self.ctx.fs.get(file_id)
        keys = f.read_segments(offset, size)
        if not keys:
            return
        last = keys[-1]
        prev = self._progress.get((pid, file_id), -1)
        self._progress[(pid, file_id)] = max(prev, last)
        end = f.base + f.num_segments
        for key in range(last + 1, min(last + self.window + 1, end)):
            if self.cache.known(key) or key in self._queued:
                continue
            self._queued.add(key)
            self._queue.offer((pid, key))

    # -- worker -----------------------------------------------------------------------
    def _claim(self, pid: int, key: int) -> int:
        """Reserve cache space for one queued key; 0 if not fetchable."""
        assert self.ctx is not None and self.cache is not None
        self._queued.discard(key)
        if self._progress.get((pid, self.ctx.fs.file_id_of(key)), -1) >= key:
            self.stale_skipped += 1  # the reader already passed this one
            return 0
        nbytes = self.ctx.segment_bytes(key)
        if nbytes == 0 or not self.cache.begin_fetch(key, nbytes):
            return 0
        return nbytes

    def _worker(self) -> Generator:
        assert self.ctx is not None and self._queue is not None and self.cache is not None
        ctx = self.ctx
        try:
            while True:
                pid, key = yield self._queue.get()
                batch: list[tuple[int, int]] = []
                nbytes = self._claim(pid, key)
                if nbytes:
                    batch.append((key, nbytes))
                # scatter-gather: drain immediately available keys into
                # one batched fetch operation
                while (
                    len(batch) < self.batch_segments
                    and self._queue.level > 0
                ):
                    npid, nxt = yield self._queue.get()
                    extra = self._claim(npid, nxt)
                    if extra:
                        batch.append((nxt, extra))
                if not batch:
                    continue
                total = sum(n for _k, n in batch)
                src = ctx.origin_tier(ctx.fs.file_id_of(batch[0][0]))
                try:
                    yield from src.read(total, priority=src.pipe.PREFETCH)
                    yield from self.cache.tier.write(total, priority=self.cache.tier.pipe.PREFETCH)
                except Interrupt:
                    for k, _n in batch:
                        self.cache.abort_fetch(k)
                    raise
                for k, _n in batch:
                    self.cache.commit_fetch(k)
                self.bytes_prefetched += total
                self.prefetch_ops += 1
        except Interrupt:
            return
