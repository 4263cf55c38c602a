"""A Stacker-like online staging prefetcher (Fig. 6 comparator).

Stacker [26] is "an autonomic data movement engine for extreme-scale
data staging-based in-situ workflows": it learns access behaviour
*online* ("learn as you go" — no profiling run, no user hints) and
stages predicted data from the burst buffers into application memory.

The reproduction implements the same contract: a first-order Markov
transition table over segments, learned per application stream as the
execution proceeds.  On an access to segment *s* it prefetches the most
probable successor chain of *s* into a DRAM staging cache (LRU).  The
defining behaviours the paper reports all emerge: a warm-up period of
cold misses while the model converges, no offline cost, and "a lower
hit ratio due to some cache conflicts and unwanted data evictions"
relative to the history-based KnowAc.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.context import RuntimeContext
from repro.workloads.spec import WorkloadSpec

__all__ = ["StackerPrefetcher"]


class StackerPrefetcher(Prefetcher):
    """Online Markov-model staging prefetcher (BB → application memory)."""

    name = "Stacker"

    def __init__(
        self,
        window: int = 4,
        ram_budget: Optional[float] = None,
        min_confidence: int = 1,
    ):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_confidence < 1:
            raise ValueError("min_confidence must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        #: transitions observed at least this many times are trusted
        self.min_confidence = min_confidence
        self._eff_window = window
        # transitions are learned along each *rank's* stream (interleaving
        # many ranks into one stream would corrupt the chains) but stored
        # in one shared model, as Stacker's staging engine is per-node
        self._last: dict[tuple[int, str], int] = {}
        self._transitions: dict[int, dict[int, int]] = defaultdict(dict)
        self._app_of_pid: dict[int, str] = {}
        self.predictions = 0
        self.cold_misses = 0

    # -- lifecycle ---------------------------------------------------------------
    def attach(self, ctx: RuntimeContext) -> None:
        super().attach(ctx)
        ram = ctx.hierarchy.by_name("RAM")
        self.cache = ManagedCache(
            ram, self.ram_budget if self.ram_budget is not None else ram.capacity
        )

    def on_workload(self, workload: WorkloadSpec) -> None:
        for proc in workload.processes:
            self._app_of_pid[proc.pid] = proc.app
        # cap the prediction-chain depth
        self._eff_window = self._fleet_window(self.window, workload)

    # -- runner hooks ------------------------------------------------------------
    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.ctx is not None
        f = self.ctx.fs.get(file_id)
        keys = f.read_segments(offset, size)
        if not keys:
            return
        # learn transitions along this rank's stream
        stream_key = (pid, file_id)
        prev = self._last.get(stream_key)
        for key in keys:
            if prev is not None and prev != key:
                row = self._transitions[prev]
                row[key] = row.get(key, 0) + 1
            prev = key
        self._last[stream_key] = keys[-1]
        # predict the successor chain of the last accessed segment
        current = keys[-1]
        for _hop in range(self._eff_window):
            nxt = self._predict(current)
            if nxt is None:
                self.cold_misses += 1
                break
            self.predictions += 1
            self._start_fetch(self.cache, nxt)
            current = nxt

    def _predict(self, key: int) -> Optional[int]:
        row = self._transitions.get(key)
        if not row:
            return None
        nxt, count = max(row.items(), key=lambda kv: kv[1])
        if count < self.min_confidence:
            return None
        return nxt
