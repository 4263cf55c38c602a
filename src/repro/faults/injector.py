"""The fault injector: hooks a :class:`FaultPlan` into a live run.

Determinism contract
--------------------
Every injection is driven either by the DES kernel clock (timed faults
spawn one simulation process per spec) or by a per-operation coin flip
drawn from a :class:`~repro.sim.rng.SeededStream` derived from
``(plan.seed, purpose)``.  Given the same ``(seed, plan)`` and the same
workload, the sequence of injections — and therefore the entire run —
is byte-for-byte reproducible.  The injector keeps a replayable
:attr:`FaultInjector.log` of ``(virtual time, kind, detail)`` records;
two runs of the same chaos scenario must produce identical logs (this
is asserted by ``tests/chaos``).

Zero overhead when disabled
---------------------------
``start()`` on an empty plan installs nothing: no chaos filter on the
event queue, no I/O fault hook, no processes on the schedule.  A run
with ``FaultPlan.empty()`` is indistinguishable from one without the
subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.faults.plan import FaultPlan
from repro.faults.spec import FaultKind, FaultSpec
from repro.sim.core import Environment, Interrupt, Process
from repro.sim.rng import SeededStream

if TYPE_CHECKING:  # typing only — keeps the faults package import-light
    from repro.core.io_clients import IOClientPool, MoveInstruction
    from repro.core.placement import PlacementEngine
    from repro.dhm.hashmap import DistributedHashMap
    from repro.events.queue import EventQueue
    from repro.metrics.collector import MetricsCollector
    from repro.storage.hierarchy import StorageHierarchy

__all__ = ["FaultTargets", "EventChaos", "FaultInjector", "fault_targets_for"]


@dataclass(frozen=True)
class FaultTargets:
    """The components a plan can act on.

    Any field may be ``None`` (or empty); specs without a live target
    are skipped with a log record rather than crashing — a plan written
    for HFetch must degrade gracefully under a baseline prefetcher that
    has no event queue or hash map.
    """

    hierarchy: "Optional[StorageHierarchy]" = None
    engine: "Optional[PlacementEngine]" = None
    queue: "Optional[EventQueue]" = None
    dhms: "tuple[DistributedHashMap, ...]" = ()
    io_clients: "Optional[IOClientPool]" = None


def fault_targets_for(prefetcher: Any, ctx: Any) -> FaultTargets:
    """Discover injectable components from a prefetcher + runtime context.

    HFetch exposes its full server (queue, hash maps, engine, I/O
    clients); baselines expose only the shared hierarchy — tier faults
    still apply, the rest no-op.
    """
    server = getattr(prefetcher, "server", None)
    if server is not None:
        return FaultTargets(
            hierarchy=ctx.hierarchy,
            engine=server.engine,
            queue=server.queue,
            dhms=(server.stats_map, server.agent_manager.mapping_map),
            io_clients=server.io_clients,
        )
    return FaultTargets(hierarchy=getattr(ctx, "hierarchy", None))


class EventChaos:
    """Per-push chaos filter installed on an :class:`EventQueue`.

    ``filter`` maps one offered event to the list of events actually
    enqueued: ``[]`` (dropped), ``[e]`` (untouched), ``[e, e]``
    (duplicated) or a pairwise swap (a held event is released *behind*
    the next one that passes, modelling an out-of-order inotify batch).
    At most one event is held at a time, so chaos never stalls the
    pipeline; a held event still in hand when the run ends is counted
    as reordered-then-dropped (event channels are lossy by design).
    """

    def __init__(
        self,
        drop: list[FaultSpec],
        duplicate: list[FaultSpec],
        reorder: list[FaultSpec],
        stream: SeededStream,
        record,
    ):
        self._drop = drop
        self._duplicate = duplicate
        self._reorder = reorder
        self._stream = stream
        self._record = record
        self._held: Optional[Any] = None
        # instrumentation
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0

    @staticmethod
    def _probability(specs: list[FaultSpec], now: float) -> float:
        """Fault probability at ``now`` (union over overlapping windows)."""
        miss = 1.0
        for spec in specs:
            if spec.active_at(now):
                miss *= 1.0 - spec.probability
        return 1.0 - miss

    def filter(self, event: Any, now: float) -> list:
        """Events to enqueue in place of ``event`` (possibly empty)."""
        out: list = []
        p_drop = self._probability(self._drop, now)
        if p_drop > 0.0 and self._stream.uniform() < p_drop:
            self.dropped += 1
            self._record(FaultKind.EVENT_DROP, str(event))
        else:
            p_reorder = self._probability(self._reorder, now)
            if (
                p_reorder > 0.0
                and self._held is None
                and self._stream.uniform() < p_reorder
            ):
                self._held = event
                self.reordered += 1
                self._record(FaultKind.EVENT_REORDER, str(event))
            else:
                out.append(event)
                p_dup = self._probability(self._duplicate, now)
                if p_dup > 0.0 and self._stream.uniform() < p_dup:
                    out.append(event)
                    self.duplicated += 1
                    self._record(FaultKind.EVENT_DUPLICATE, str(event))
        if self._held is not None and out:
            # release the held event behind its successor (the swap)
            out.append(self._held)
            self._held = None
        return out


class _IOFaults:
    """Per-movement coin flip installed as ``IOClientPool.fault_hook``."""

    def __init__(
        self,
        env: Environment,
        specs: list[FaultSpec],
        stream: SeededStream,
        record,
    ):
        self._env = env
        self._specs = specs
        self._stream = stream
        self._record = record
        self.injected = 0

    def __call__(self, instruction: "MoveInstruction") -> bool:
        now = self._env.now
        miss = 1.0
        for spec in self._specs:
            if spec.active_at(now) and (
                spec.target is None or spec.target == instruction.dst_name
            ):
                miss *= 1.0 - spec.probability
        p = 1.0 - miss
        if p > 0.0 and self._stream.uniform() < p:
            self.injected += 1
            self._record(
                FaultKind.PREFETCH_IO_ERROR,
                f"{instruction.key} -> {instruction.dst_name}",
            )
            return True
        return False


class FaultInjector:
    """Applies a :class:`FaultPlan` to live components, deterministically."""

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        targets: FaultTargets,
        metrics: "Optional[MetricsCollector]" = None,
    ):
        self.env = env
        self.plan = plan
        self.targets = targets
        self.metrics = metrics
        #: replayable injection log: (virtual time, kind value, detail)
        self.log: list[tuple[float, str, str]] = []
        self.chaos: Optional[EventChaos] = None
        self.io_faults: Optional[_IOFaults] = None
        self._procs: list[Process] = []
        self._started = False
        self.faults_applied = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Install hooks and spawn the timed-fault processes.

        A no-op for an empty plan — nothing is installed at all.
        """
        if self._started or self.plan.is_empty:
            self._started = True
            return
        self._started = True
        self._install_event_chaos()
        self._install_io_faults()
        pool = self.targets.io_clients
        if pool is not None and pool.failure_listener is None:
            pool.failure_listener = self._on_move_failure
        for i, spec in enumerate(self.plan.specs):
            if spec.kind in (
                FaultKind.TIER_OUTAGE,
                FaultKind.DEVICE_SLOWDOWN,
                FaultKind.SHARD_OUTAGE,
            ):
                self._procs.append(
                    self.env.process(self._timed(spec), name=f"fault-{i}-{spec.kind}")
                )

    def stop(self) -> None:
        """Interrupt pending timed faults and uninstall the hooks."""
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("shutdown")
        self._procs.clear()
        if self.chaos is not None and self.targets.queue is not None:
            if self.targets.queue.chaos is self.chaos:
                self.targets.queue.chaos = None
        if self.io_faults is not None and self.targets.io_clients is not None:
            if self.targets.io_clients.fault_hook is self.io_faults:
                self.targets.io_clients.fault_hook = None
        pool = self.targets.io_clients
        if pool is not None and pool.failure_listener == self._on_move_failure:
            pool.failure_listener = None

    def _on_move_failure(self, outcome: str) -> None:
        """Degradation outcome from the I/O clients ("prefetch_retry" /
        "prefetch_error") — counted into the run's error budget."""
        if self.metrics is not None:
            self.metrics.record_fault(outcome)

    # -- bookkeeping ------------------------------------------------------
    def record(self, kind: FaultKind, detail: str) -> None:
        """Append one injection to the replayable log (and the metrics)."""
        self.faults_applied += 1
        self.log.append((self.env.now, kind.value, detail))
        if self.metrics is not None:
            self.metrics.record_fault(kind.value)

    def log_lines(self) -> list[str]:
        """The log formatted as stable text lines (replay comparison)."""
        return [f"{t:.9f} {kind} {detail}" for t, kind, detail in self.log]

    # -- hook installation ------------------------------------------------
    def _install_event_chaos(self) -> None:
        drop = self.plan.by_kind(FaultKind.EVENT_DROP)
        dup = self.plan.by_kind(FaultKind.EVENT_DUPLICATE)
        reorder = self.plan.by_kind(FaultKind.EVENT_REORDER)
        if not (drop or dup or reorder):
            return
        if self.targets.queue is None:
            self.record(FaultKind.EVENT_DROP, "skipped: no event queue target")
            return
        self.chaos = EventChaos(
            drop,
            dup,
            reorder,
            SeededStream(self.plan.seed, "faults/event-chaos"),
            self.record,
        )
        self.targets.queue.chaos = self.chaos

    def _install_io_faults(self) -> None:
        specs = self.plan.by_kind(FaultKind.PREFETCH_IO_ERROR)
        if not specs:
            return
        if self.targets.io_clients is None:
            self.record(FaultKind.PREFETCH_IO_ERROR, "skipped: no I/O client target")
            return
        self.io_faults = _IOFaults(
            self.env, specs, SeededStream(self.plan.seed, "faults/io-errors"), self.record
        )
        self.targets.io_clients.fault_hook = self.io_faults

    # -- timed faults -----------------------------------------------------
    def _timed(self, spec: FaultSpec) -> Generator:
        try:
            if spec.at > 0:
                yield self.env.timeout(spec.at)
            self._apply(spec)
            if spec.recovers:
                yield self.env.timeout(spec.duration)
                self._revert(spec)
        except Interrupt:
            return

    def _tier_of(self, spec: FaultSpec):
        hierarchy = self.targets.hierarchy
        if hierarchy is None:
            self.record(spec.kind, f"skipped {spec.target}: no hierarchy target")
            return None
        try:
            tier = hierarchy.by_name(str(spec.target))
        except KeyError:
            self.record(spec.kind, f"skipped {spec.target}: unknown tier")
            return None
        if tier is hierarchy.backing:
            raise ValueError(
                f"cannot inject {spec.kind} on the backing tier {tier.name!r}: "
                "the backing store is the durability root of the hierarchy"
            )
        return tier

    def _apply(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.TIER_OUTAGE:
            tier = self._tier_of(spec)
            if tier is None:
                return
            engine = self.targets.engine
            if engine is not None:
                rehomed = engine.on_tier_failed(tier)
                self.record(
                    FaultKind.TIER_OUTAGE, f"{tier.name} down, rehomed={rehomed}"
                )
            else:
                displaced = self.targets.hierarchy.fail_tier(tier)
                self.record(
                    FaultKind.TIER_OUTAGE, f"{tier.name} down, displaced={len(displaced)}"
                )
        elif spec.kind is FaultKind.DEVICE_SLOWDOWN:
            tier = self._tier_of(spec)
            if tier is None:
                return
            if not tier.available:
                # an outage already took the device away; nothing to slow
                self.record(FaultKind.DEVICE_SLOWDOWN, f"skipped {tier.name}: tier down")
                return
            tier.degrade(spec.factor)
            self.record(FaultKind.DEVICE_SLOWDOWN, f"{tier.name} x{spec.factor:g}")
        elif spec.kind is FaultKind.SHARD_OUTAGE:
            applied = 0
            for dhm in self.targets.dhms:
                if isinstance(spec.target, int) and spec.target < dhm.shards:
                    dhm.fail_shard(spec.target)
                    applied += 1
            if applied:
                self.record(FaultKind.SHARD_OUTAGE, f"shard {spec.target} down ({applied} maps)")
            else:
                self.record(FaultKind.SHARD_OUTAGE, f"skipped shard {spec.target}: no map")

    def _revert(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.TIER_OUTAGE:
            tier = self._tier_of(spec)
            if tier is None:
                return
            engine = self.targets.engine
            if engine is not None:
                engine.on_tier_recovered(tier)
            else:
                self.targets.hierarchy.recover_tier(tier)
            self.record(FaultKind.TIER_OUTAGE, f"{tier.name} recovered")
        elif spec.kind is FaultKind.DEVICE_SLOWDOWN:
            tier = self._tier_of(spec)
            if tier is None:
                return
            tier.restore_speed()
            self.record(FaultKind.DEVICE_SLOWDOWN, f"{tier.name} restored")
        elif spec.kind is FaultKind.SHARD_OUTAGE:
            merged = 0
            applied = 0
            for dhm in self.targets.dhms:
                if isinstance(spec.target, int) and spec.target < dhm.shards:
                    merged += dhm.recover_shard(spec.target)
                    applied += 1
            if applied:
                self.record(
                    FaultKind.SHARD_OUTAGE, f"shard {spec.target} recovered, merged={merged}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector plan={self.plan.fingerprint()} "
            f"applied={self.faults_applied} started={self._started}>"
        )
