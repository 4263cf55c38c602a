"""A KnowAc-like history-based prefetcher (Fig. 6 comparator).

KnowAc [22] ("I/O prefetch via accumulated knowledge") stores the
accesses seen in a previous run of an application, so when the same
application executes again the access pattern is fully known.  Two
consequences the paper reports, both reproduced here:

* during the measured run it "knows exactly what to load next" — the
  best raw read time of all solutions;
* it pays a *profiling cost* up front (the stacked "Profile-Cost" bar
  of Fig. 6): the knowledge had to be accumulated by running the
  workload once against the origin tier without any prefetching.

The reproduction gets its "previous run" from the static workload spec
(exactly what a stored trace contains), prefetches each process's
future accesses into a shared DRAM staging cache, and evicts the entry
whose next use is farthest in the future.  The profiling cost is
estimated as the uncontended time of one full no-prefetch pass over the
workload's reads — a *lower bound* on a real profiling run, which makes
the comparison conservative in KnowAc's favour.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.context import RuntimeContext
from repro.workloads.spec import WorkloadSpec

__all__ = ["KnowAcPrefetcher"]


class KnowAcPrefetcher(Prefetcher):
    """History-based prefetching with a charged profiling run."""

    name = "KnowAc"

    def __init__(self, window: int = 8, ram_budget: Optional[float] = None):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        self._eff_window = window
        self._traces: dict[int, list[int]] = {}
        self._cursor: dict[int, int] = {}
        # global next-use structure for far-future eviction
        self._positions: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._profile_cost = 0.0

    # -- lifecycle ----------------------------------------------------------------
    def attach(self, ctx: RuntimeContext) -> None:
        super().attach(ctx)
        ram = ctx.hierarchy.by_name("RAM")
        self.cache = ManagedCache(
            ram,
            self.ram_budget if self.ram_budget is not None else ram.capacity,
            victim_chooser=self._far_future_chooser,
        )

    def on_workload(self, workload: WorkloadSpec) -> None:
        assert self.ctx is not None
        for proc in workload.processes:
            trace = proc.segment_trace(self.ctx.fs)
            self._traces[proc.pid] = trace
            self._cursor[proc.pid] = 0
            for i, key in enumerate(trace):
                self._positions[key].append((proc.pid, i))
        self._profile_cost = self._estimate_profile_cost(workload)
        self._eff_window = self._fleet_window(self.window, workload)

    def _estimate_profile_cost(self, workload: WorkloadSpec) -> float:
        """Uncontended time of one tracing pass over all reads."""
        assert self.ctx is not None
        total = 0.0
        per_origin_bytes: dict[str, int] = defaultdict(int)
        per_origin_ops: dict[str, int] = defaultdict(int)
        for _pid, op in workload.iter_all_reads():
            origin = self.ctx.origin_tier(op.file_id)
            per_origin_bytes[origin.name] += op.size
            per_origin_ops[origin.name] += 1
        for name, nbytes in per_origin_bytes.items():
            tier = self.ctx.hierarchy.by_name(name)
            aggregate_bw = tier.pipe.bandwidth * tier.pipe.channels
            total += nbytes / aggregate_bw + per_origin_ops[name] * tier.pipe.latency / max(
                1, workload.num_processes
            )
        # plus the compute the traced run also performs
        if workload.processes:
            total += max(
                sum(s.compute_time for s in p.steps) for p in workload.processes
            )
        return total

    # -- eviction: farthest global next use -------------------------------------------
    def _far_future_chooser(self, cache: ManagedCache) -> Optional[int]:
        best_key, best_next = None, -1
        for key in cache.resident_keys():
            nxt = self._next_use(key)
            if nxt > best_next:
                best_key, best_next = key, nxt
        return best_key

    def _next_use(self, key: int) -> int:
        uses = self._positions.get(key)
        if not uses:
            return 1 << 62
        soonest = 1 << 62
        for pid, i in uses:
            cursor = self._cursor.get(pid, 0)
            if i >= cursor:
                soonest = min(soonest, i - cursor)
        return soonest

    # -- runner hooks -------------------------------------------------------------------
    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.cache is not None
        trace = self._traces.get(pid)
        if trace is not None:
            self._fetch_ahead(self.cache, pid, trace, self._cursor,
                              file_id, offset, size, self._eff_window)

    # -- accounting -----------------------------------------------------------------------
    def profile_cost(self) -> float:
        return self._profile_cost
