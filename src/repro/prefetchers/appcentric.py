"""The application-centric prefetcher (the Fig. 5 comparator).

Represents the classic client-pull design the paper argues against:
every application runs its *own* prefetcher with its *own* share of the
prefetching cache, blind to what the other applications are doing.  With
several applications reading the same dataset this produces exactly the
pathologies of §II-B:

* **cache redundancy** — two applications prefetch the same segment into
  their separate partitions, wasting capacity;
* **cache pollution / unnecessary evictions** — an application's own
  aggressive read-ahead evicts its still-useful data from its small
  share;
* **uncoordinated origin traffic** — all applications' prefetch workers
  hammer the origin tier at once.

Pattern detection runs per rank (each process's I/O library sees only
its own stream): a confirmed constant stride (sequential reads are a
stride of one request) yields predictions; repetitive and irregular
streams defeat the detector, leaving only LRU reuse — matching the
paper's Fig. 5 narrative.

The cache spans RAM with NVMe as a plain overflow buffer (no scoring):
"most existing prefetchers cannot handle the presence of multiple tiers
opting either to bypass them or partially use them as overflowing data
buffers" (§V-d).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.util import ManagedCache
from repro.runtime.context import ReadPlan
from repro.workloads.spec import WorkloadSpec

__all__ = ["AppCentricPrefetcher"]


class _StreamDetector:
    """Sequential/strided detector over one rank's request stream."""

    def __init__(self, history: int = 4):
        self.offsets: deque[int] = deque(maxlen=history)

    def observe(self, offset: int) -> None:
        self.offsets.append(offset)

    def predict_stride(self) -> Optional[int]:
        """A confirmed constant stride (bytes), or None."""
        if len(self.offsets) < 3:
            return None
        deltas = [
            self.offsets[i + 1] - self.offsets[i] for i in range(len(self.offsets) - 1)
        ]
        if all(d == deltas[0] for d in deltas) and deltas[0] != 0:
            return deltas[0]
        return None


class _AppPartition:
    """One application's private share of the prefetching cache."""

    def __init__(self, ram: Optional[ManagedCache], nvme: Optional[ManagedCache]):
        self.ram = ram
        self.nvme = nvme

    def lookup(self, key: int) -> Optional[ManagedCache]:
        if self.ram is not None and self.ram.ready(key):
            return self.ram
        if self.nvme is not None and self.nvme.ready(key):
            return self.nvme
        return None

    def known(self, key: int) -> bool:
        return (self.ram is not None and self.ram.known(key)) or (
            self.nvme is not None and self.nvme.known(key)
        )

    def pick_pool(self, nbytes: int) -> Optional[ManagedCache]:
        """RAM first; spill to the NVMe overflow buffer when RAM is tight."""
        if self.ram is not None and (
            self.ram.free >= nbytes or self.nvme is None or self.nvme.free < nbytes
        ):
            return self.ram
        return self.nvme

    @property
    def evictions(self) -> int:
        total = self.ram.evictions if self.ram is not None else 0
        if self.nvme is not None:
            total += self.nvme.evictions
        return total

    @property
    def ram_peak(self) -> int:
        return self.ram.peak_used if self.ram is not None else 0


class AppCentricPrefetcher(Prefetcher):
    """Per-application client-pull prefetching in private cache shares."""

    name = "Application-centric"

    def __init__(
        self,
        window: int = 8,
        ram_budget: Optional[float] = None,
        nvme_budget: Optional[float] = None,
    ):
        super().__init__()
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.ram_budget = ram_budget
        self.nvme_budget = nvme_budget
        self._partitions: dict[str, _AppPartition] = {}
        self._detectors: dict[tuple[int, str], _StreamDetector] = {}
        self._app_of_pid: dict[int, str] = {}

    # -- lifecycle ------------------------------------------------------------
    def on_workload(self, workload: WorkloadSpec) -> None:
        assert self.ctx is not None
        for proc in workload.processes:
            self._app_of_pid[proc.pid] = proc.app
        apps = sorted({p.app for p in workload.processes}) or ["app"]
        ram = self.ctx.hierarchy.by_name("RAM")
        ram_total = self.ram_budget if self.ram_budget is not None else ram.capacity
        try:
            nvme = self.ctx.hierarchy.by_name("NVMe")
        except KeyError:
            nvme = None
        nvme_total = 0.0
        if nvme is not None:
            nvme_total = self.nvme_budget if self.nvme_budget is not None else nvme.capacity
        share_ram = ram_total / len(apps)
        share_nvme = nvme_total / len(apps) if nvme is not None else 0.0
        for app in apps:
            self._partitions[app] = _AppPartition(
                ram=ManagedCache(ram, share_ram) if share_ram > 0 else None,
                nvme=ManagedCache(nvme, share_nvme)
                if nvme is not None and share_nvme > 0
                else None,
            )

    def _partition_of(self, pid: int) -> Optional[_AppPartition]:
        app = self._app_of_pid.get(pid)
        if app is None:
            return None
        return self._partitions.get(app)

    # -- runner hooks -----------------------------------------------------------
    def plan_read(self, pid: int, node: int, key: int) -> ReadPlan:
        part = self._partition_of(pid)
        return self._plan(part.lookup(key) if part is not None else None, key)

    def on_access(self, pid: int, node: int, file_id: str, offset: int, size: int) -> None:
        assert self.ctx is not None
        part = self._partition_of(pid)
        if part is None:
            return
        f = self.ctx.fs.get(file_id)
        # demand-side read caching: what the application just read stays
        # in its partition (classic client read-cache behaviour), so
        # repetitive streams earn hits even when prediction fails
        for key in f.read_segments(offset, size):
            self._insert_demand(part, key)
        detector = self._detectors.setdefault((pid, file_id), _StreamDetector())
        detector.observe(offset)
        stride = detector.predict_stride()
        if stride is None:
            return  # repetitive/irregular: the detector is blind
        f = self.ctx.fs.get(file_id)
        predicted = offset
        for _ahead in range(self.window):
            predicted += stride
            if not 0 <= predicted < f.size:
                break
            for key in f.read_segments(predicted, size):
                self._prefetch(part, key)

    def _insert_demand(self, part: _AppPartition, key: int) -> None:
        """Cache a just-read segment (bytes already local; RAM-write cost)."""
        assert self.ctx is not None
        if part.known(key):
            pool = part.lookup(key)
            if pool is not None:
                pool.touch(key)
            return
        nbytes = self.ctx.segment_bytes(key)
        if nbytes == 0:
            return
        pool = part.pick_pool(nbytes)
        if pool is None or not pool.begin_fetch(key, nbytes):
            return

        def writer():
            yield from pool.tier.write(nbytes, priority=pool.tier.pipe.PREFETCH)
            pool.commit_fetch(key)

        self.ctx.env.process(writer(), name="appcentric-demand")

    def _prefetch(self, part: _AppPartition, key: int) -> None:
        assert self.ctx is not None
        if part.known(key):
            return
        pool = part.pick_pool(self.ctx.segment_bytes(key))
        if pool is not None:
            self._start_fetch(pool, key)

    # -- accounting -------------------------------------------------------------
    @property
    def ram_peak_bytes(self) -> float:
        return float(sum(p.ram_peak for p in self._partitions.values()))

    @property
    def cache_evictions(self) -> int:
        """Pollution-driven evictions across every partition."""
        return sum(p.evictions for p in self._partitions.values())
