"""Data-prefetching I/O clients (paper §III-A.5).

For each available hardware tier there is a worker responsible for the
actual I/O to and from source and destination tiers.  The placement
engine updates the residency ledger synchronously (so capacity is always
exact) and enqueues a :class:`MoveInstruction`; a worker then *performs*
the movement — read at the source device, cross the fabric if either
side is remote, write at the destination device — taking real simulated
time.  While a move is in flight the segment is served from its source
location, which is precisely the timeliness effect prefetchers live or
die by: a prefetch that completes after the read it was meant to hide
is a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Generator, Optional

from repro.network.comm import NodeCommunicator
from repro.sim.core import Environment, Interrupt, Process
from repro.sim.resources import Store
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier

__all__ = ["MoveInstruction", "IOClientPool"]


@dataclass(frozen=True)
class MoveInstruction:
    """One planned segment movement.

    ``src_name`` is where the bytes are read from (a tier name, possibly
    the file's origin tier); ``dst_name`` is the tier the segment was
    ledger-placed on.  ``home_node`` records the segment's locality for
    remote-read accounting.  ``decision`` is the provenance id of the
    placement decision that issued the move (−1 outside diagnosis runs);
    retries preserve it, so a move lineage is attributable end to end.
    """

    key: SegmentKey
    nbytes: int
    src_name: str
    dst_name: str
    home_node: int = 0
    issued_at: float = 0.0
    retries: int = 0
    decision: int = -1


class IOClientPool:
    """Per-tier movement workers executing the placement plan."""

    def __init__(
        self,
        env: Environment,
        hierarchy: StorageHierarchy,
        comm: Optional[NodeCommunicator] = None,
        workers_per_tier: int = 1,
        batch_segments: int = 8,
        max_retries: int = 2,
    ):
        if workers_per_tier < 1:
            raise ValueError("workers_per_tier must be >= 1")
        if batch_segments < 1:
            raise ValueError("batch_segments must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.env = env
        self.hierarchy = hierarchy
        self.comm = comm
        self.workers_per_tier = workers_per_tier
        #: movements merged into one collective I/O per device op
        #: (§III-A.5: the clients "participate in collective I/O
        #: operations"), amortising per-op latency across segments
        self.batch_segments = batch_segments
        # one instruction queue per destination tier
        self._queues: dict[str, Store] = {
            tier.name: Store(env) for tier in hierarchy.tiers
        }
        self._workers: list[Process] = []
        self._running = False
        #: segments whose physical movement has not completed yet,
        #: mapped to the tier name that still serves them.
        self.in_flight: dict[SegmentKey, str] = {}
        #: bounded retry budget per instruction before it falls back to
        #: demand fetching
        self.max_retries = max_retries
        #: fault-injection hook: ``hook(instruction) -> True`` fails the
        #: move at the device (installed by the chaos injector; None in
        #: normal runs)
        self.fault_hook: Optional[Callable[[MoveInstruction], bool]] = None
        #: callback notified of failure outcomes ("prefetch_retry" /
        #: "prefetch_error") for error-budget accounting
        self.failure_listener: Optional[Callable[[str], None]] = None
        # instrumentation
        self.moves_completed = 0
        self.bytes_moved = 0
        self.move_time = 0.0
        self.moves_failed = 0
        self.move_retries = 0
        self.demand_fallbacks = 0
        # telemetry (None in normal runs: zero overhead)
        self.telemetry = None
        self._h_move = None
        self._c_retries = None
        self._c_errors = None
        self._move_marks: dict[str, Callable] = {}
        self._done_marks: dict[str, Callable] = {}
        # decision provenance (diagnosis runs only)
        self._prov = None

    def bind_telemetry(self, telemetry) -> None:
        """Register I/O-client metrics into a live telemetry handle."""
        from repro.telemetry.handle import live as _live

        tel = _live(telemetry)
        if tel is None:
            return
        self.telemetry = tel
        self._prov = tel.provenance
        reg = tel.registry
        self._h_move = reg.histogram("io.move_latency_s")
        self._c_retries = reg.counter("io.retries")
        self._c_errors = reg.counter("io.errors")
        reg.gauge("io.backlog", fn=lambda: self.backlog)
        # one trace stream pair per destination tier (workers of a tier
        # share the tier's track); move latency is folded from the
        # ``issued`` column at end of run, off the movement hot path
        tracer = tel.tracer
        done_streams = []
        for tier in self.hierarchy.tiers:
            track = f"io-{tier.name}"
            self._move_marks[tier.name] = tracer.stream(
                "io.move", "io", track, kind="span", fields=("n", "bytes")
            ).append
            done = tracer.stream(
                "io.move_done", "io", track,
                fields=("src", "dst", "bytes", "issued"),
            )
            done_streams.append(done)
            self._done_marks[tier.name] = done.append

        def _fold_move_latency() -> None:
            observe = self._h_move.observe_many
            for s in done_streams:
                buf = s.buf
                if buf:
                    observe(ts - t0 for ts, t0 in zip(buf[0::6], buf[5::6]))

        tel.add_finalizer(_fold_move_latency)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker processes."""
        if self._running:
            return
        self._running = True
        for tier in self.hierarchy.tiers:
            for w in range(self.workers_per_tier):
                proc = self.env.process(
                    self._worker_loop(tier.name), name=f"ioclient-{tier.name}-{w}"
                )
                self._workers.append(proc)

    def stop(self) -> None:
        """Interrupt every worker."""
        self._running = False
        for proc in self._workers:
            if proc.is_alive:
                proc.interrupt("shutdown")
        self._workers.clear()

    # -- submission ------------------------------------------------------------
    def submit(self, instruction: MoveInstruction) -> None:
        """Queue a movement for the destination tier's worker."""
        if instruction.dst_name not in self._queues:
            raise KeyError(f"no I/O client for tier {instruction.dst_name!r}")
        self.in_flight[instruction.key] = instruction.src_name
        self._queues[instruction.dst_name].put(instruction)

    def serving_tier_name(self, key: SegmentKey) -> Optional[str]:
        """Tier that can serve ``key`` right now, accounting for moves.

        Returns the in-flight source while a move is pending, the ledger
        location once settled, or ``None`` if not cached anywhere.
        """
        pending = self.in_flight.get(key)
        if pending is not None:
            return pending
        tier = self.hierarchy.locate(key)
        return tier.name if tier is not None else None

    @property
    def backlog(self) -> int:
        """Movements queued or in flight."""
        return len(self.in_flight)

    # -- the workers ---------------------------------------------------------------
    def _tier_or_none(self, name: str) -> Optional[StorageTier]:
        try:
            return self.hierarchy.by_name(name)
        except KeyError:
            return None

    def _worker_loop(self, dst_name: str) -> Generator:
        queue = self._queues[dst_name]
        try:
            while True:
                instruction: MoveInstruction = yield queue.get()
                batch = [instruction]
                # gather immediately available instructions into one
                # collective movement (scatter-gather per device op)
                while len(batch) < self.batch_segments and queue.level > 0:
                    batch.append((yield queue.get()))
                yield from self._execute_batch(batch, dst_name)
        except Interrupt:
            return

    def _execute_batch(
        self, batch: list[MoveInstruction], dst_name: str
    ) -> Generator:
        start = self.env.now
        dst = self._tier_or_none(dst_name)
        if dst is not None and not dst.available:
            # destination died while the instructions were queued
            for ins in batch:
                self._fail_move(ins)
            return
        if self.fault_hook is not None:
            live = []
            for ins in batch:
                if self.fault_hook(ins):
                    self._fail_move(ins)
                else:
                    live.append(ins)
            batch = live
        if any(not t.available for t in self.hierarchy.tiers):
            # a failed tier cannot be read from: re-route those moves
            live = []
            for ins in batch:
                src = self._tier_or_none(ins.src_name)
                if src is not None and not src.available:
                    self._fail_move(ins)
                else:
                    live.append(ins)
            batch = live
        if not batch:
            return
        # 1) one read per source tier covering that source's segments
        by_src: dict[str, int] = {}
        for ins in batch:
            by_src[ins.src_name] = by_src.get(ins.src_name, 0) + ins.nbytes
        crosses_network = dst is not None and not dst.profile.local
        for src_name, nbytes in by_src.items():
            src = self._tier_or_none(src_name)
            if src is not None:
                yield from src.read(nbytes, priority=src.pipe.PREFETCH)
                crosses_network = crosses_network or not src.profile.local
        total = sum(ins.nbytes for ins in batch)
        # 2) cross the fabric once when the movement leaves the node
        if crosses_network and self.comm is not None:
            yield from self.comm.bulk_transfer(0, 1, total)
        # 3) one write at the destination device
        if dst is not None:
            yield from dst.write(total, priority=dst.pipe.PREFETCH)
        # the moves have settled: ledger locations now serve reads
        for ins in batch:
            self.in_flight.pop(ins.key, None)
        self.moves_completed += len(batch)
        self.bytes_moved += total
        self.move_time += self.env.now - start
        prov = self._prov
        if prov is not None:
            for ins in batch:
                prov.move_done(
                    ins.decision, ins.key, ins.src_name, ins.dst_name, ins.nbytes
                )
        tel = self.telemetry
        if tel is not None:
            now = self.env.now
            self._move_marks[dst_name]((start, now, None, len(batch), total))
            done_mark = self._done_marks[dst_name]
            key_flow = tel.key_flow
            for ins in batch:
                done_mark(
                    (now, key_flow.get(ins.key), ins.src_name,
                     ins.dst_name, ins.nbytes, ins.issued_at)
                )

    def _fail_move(self, ins: MoveInstruction) -> None:
        """Handle one failed movement: bounded retry, then demand fallback.

        A retried instruction whose source tier has failed is re-sourced
        from the backing store (which always holds the bytes).  Once the
        retry budget is exhausted the ledger placement is rolled back, so
        subsequent application reads of the segment demand-fetch from its
        origin — the prefetch simply never happened.
        """
        if ins.retries < self.max_retries:
            self.move_retries += 1
            if self._c_retries is not None:
                self._c_retries.inc()
            if self.failure_listener is not None:
                self.failure_listener("prefetch_retry")
            src = self._tier_or_none(ins.src_name)
            src_name = ins.src_name
            if src is not None and not src.available:
                src_name = self.hierarchy.backing.name
            self.submit(replace(ins, src_name=src_name, retries=ins.retries + 1))
            return
        self.moves_failed += 1
        self.demand_fallbacks += 1
        if self._c_errors is not None:
            self._c_errors.inc()
        if self.in_flight.get(ins.key) == ins.src_name:
            self.in_flight.pop(ins.key, None)
        prov = self._prov
        if self.hierarchy.resident_tier_name(ins.key) == ins.dst_name:
            self.hierarchy.evict(ins.key, cause="move-failed")
        if prov is not None:
            prov.move_failed(ins.decision, ins.key, ins.nbytes)
        if self.failure_listener is not None:
            self.failure_listener("prefetch_error")

    def drop_in_flight(self, key: SegmentKey) -> None:
        """Forget an in-flight marker (invalidation path)."""
        self.in_flight.pop(key, None)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<IOClientPool moves={self.moves_completed} "
            f"in_flight={len(self.in_flight)} bytes={self.bytes_moved}>"
        )
