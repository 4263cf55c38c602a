"""The two DRAM-only prefetchers of Fig. 4(b).

* :class:`InMemoryOptimalPrefetcher` — the idealised comparator: every
  process owns a private partition of the RAM budget, knows its own
  future access sequence exactly (clairvoyance via the static workload
  spec), fetches ahead of itself and evicts Belady-optimally within its
  partition.  "each process brings data into its own cache."
* :class:`InMemoryNaivePrefetcher` — all processes share one LRU cache
  and issue uncoordinated read-ahead; they "compete for access to the
  prefetching cache", polluting each other and (at scale) interfering
  with application reads at the PFS, which is why enabling it can be
  *slower* than no prefetching at all.

Both are capped at the RAM budget — the whole point of Fig. 4(b) is
that HFetch can spill to NVMe and burst buffers while these cannot.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.context import ReadPlan, RuntimeContext
from repro.workloads.spec import WorkloadSpec

__all__ = ["InMemoryOptimalPrefetcher", "InMemoryNaivePrefetcher"]


class InMemoryOptimalPrefetcher(Prefetcher):
    """Per-process clairvoyant prefetching in private RAM partitions."""

    name = "In-Memory Optimal"

    def __init__(self, window: int = 8, ram_budget: Optional[float] = None):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        self._caches: dict[int, ManagedCache] = {}
        self._traces: dict[int, list[int]] = {}
        self._positions: dict[int, dict[int, list[int]]] = {}
        self._cursor: dict[int, int] = {}
        self._partition = 0.0

    # -- lifecycle ---------------------------------------------------------------
    def on_workload(self, workload: WorkloadSpec) -> None:
        assert self.ctx is not None
        ram = self.ctx.hierarchy.by_name("RAM")
        budget = self.ram_budget if self.ram_budget is not None else ram.capacity
        nprocs = max(1, workload.num_processes)
        self._partition = budget / nprocs
        for proc in workload.processes:
            trace = proc.segment_trace(self.ctx.fs)
            self._traces[proc.pid] = trace
            pos: dict[int, list[int]] = defaultdict(list)
            for i, key in enumerate(trace):
                pos[key].append(i)
            self._positions[proc.pid] = dict(pos)
            self._cursor[proc.pid] = 0
            if self._partition >= 1:
                self._caches[proc.pid] = ManagedCache(
                    ram,
                    self._partition,
                    victim_chooser=self._belady_chooser(proc.pid),
                )

    def _belady_chooser(self, pid: int):
        def chooser(cache: ManagedCache) -> Optional[int]:
            cursor = self._cursor[pid]
            positions = self._positions[pid]
            best_key, best_next = None, -1
            for key in cache.resident_keys():
                plist = positions.get(key, ())
                i = bisect_right(plist, cursor - 1)
                nxt = plist[i] if i < len(plist) else 1 << 62
                if nxt > best_next:
                    best_key, best_next = key, nxt
            return best_key

        return chooser

    # -- runner hooks ----------------------------------------------------------------
    def plan_read(self, pid: int, node: int, key: int) -> ReadPlan:
        return self._plan(self._caches.get(pid), key)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        cache = self._caches.get(pid)
        trace = self._traces.get(pid)
        if cache is not None and trace is not None:
            self._fetch_ahead(cache, pid, trace, self._cursor,
                              file_id, offset, size, self.window)

    # -- accounting ---------------------------------------------------------------------
    @property
    def ram_peak_bytes(self) -> float:
        return float(sum(c.peak_used for c in self._caches.values()))

    @property
    def cache_evictions(self) -> int:
        """Total evictions across all private partitions."""
        return sum(c.evictions for c in self._caches.values())


class InMemoryNaivePrefetcher(Prefetcher):
    """Uncoordinated shared-LRU read-ahead in RAM."""

    name = "In-Memory Naive"

    def __init__(self, window: int = 8, ram_budget: Optional[float] = None):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ram_budget = ram_budget

    def attach(self, ctx: RuntimeContext) -> None:
        super().attach(ctx)
        ram = ctx.hierarchy.by_name("RAM")
        budget = self.ram_budget if self.ram_budget is not None else ram.capacity
        self.cache = ManagedCache(ram, budget)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.ctx is not None and self.cache is not None
        f = self.ctx.fs.get(file_id)
        keys = f.read_segments(offset, size)
        if not keys:
            return
        last = keys[-1]
        # every process read-aheads for itself — no coordination at all
        end = f.base + f.num_segments
        for key in range(last + 1, min(last + self.window + 1, end)):
            self._start_fetch(self.cache, key)
