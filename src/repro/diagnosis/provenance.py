"""Decision provenance: the event log of every telemetry run.

A :class:`ProvenanceLog` is the in-run record of every placement
decision, move outcome, eviction and application read: each appends one
small tuple to a single flat event list, which the diagnosis layer
replays and the telemetry handle's trace views are filled from.
The *append order* of that list is the simulation's causal order (the
DES executes one callback at a time), so the offline replay in
:mod:`repro.diagnosis.attribution` never has to merge or sort streams —
it walks the list once.

Recording never advances the virtual clock and never touches any seeded
RNG, so an instrumented run produces the same
:class:`~repro.metrics.collector.RunResult` as one without (the
equivalence test in ``tests/diagnosis/`` enforces this), and two
same-seed runs produce byte-identical event lists — which is what makes
waste classification deterministic.

Segments are named by their integer id (``sid``, given out by
:class:`~repro.storage.files.FileSystemModel`); tier names and cause
strings are ordinary interned Python strings, so an event append costs
one tuple allocation plus pointer stores.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ProvenanceLog",
    "EV_DECISION",
    "EV_MOVE_DONE",
    "EV_MOVE_FAILED",
    "EV_EVICT",
    "EV_READ",
    "KIND_PLACE",
    "KIND_PROMOTE",
    "KIND_DEMOTE",
    "KIND_REHOME",
]

#: event tags (first element of every event tuple)
EV_DECISION = 0
EV_MOVE_DONE = 1
EV_MOVE_FAILED = 2
EV_EVICT = 3
EV_READ = 4

#: decision kinds (Algorithm 1 outcomes)
KIND_PLACE = "place"        # first placement of a backing-only segment
KIND_PROMOTE = "promote"    # moved up (score rose)
KIND_DEMOTE = "demote"      # moved down (displaced by a hotter segment)
KIND_REHOME = "rehome"      # re-placed after a tier outage (fault path)


class ProvenanceLog:
    """Flat, append-only record of every decision and its outcome.

    Event layouts (tag first, virtual timestamp second)::

        (EV_DECISION,    t, did, sid, kind, score, rank, src, dst, nbytes, moved, flow)
        (EV_MOVE_DONE,   t, did, sid, src, dst, nbytes, flow)
        (EV_MOVE_FAILED, t, did, sid, nbytes)
        (EV_EVICT,       t, sid, tier, cause)
        (EV_READ,        t, sid, served, origin, hit, nbytes, pid, t0, size)

    ``did`` is a monotonically increasing decision id; ``rank`` is the
    segment's position in the engine pass's hotness-sorted plan (−1 for
    decisions made outside a pass ordering, e.g. demotion-cascade
    victims and fault re-homing); ``moved`` records whether the decision
    submitted a physical :class:`~repro.core.io_clients.MoveInstruction`
    (a ledger-only placement on the tier already serving the segment
    moves no bytes and therefore has no waste class).  ``flow`` is the
    segment's entry in :attr:`flow` when the record was made.

    An ``EV_READ`` is one segment of a read request that started at
    ``t0``, asked for ``size`` bytes and completed at ``t``; a request's
    segments are recorded back to back.  It is the run's only per-read
    record (the ``runner.read`` spans are derived from it).

    An eviction's ``cause`` ("evicted", "rejected", "invalidated",
    "displaced", "move-failed") is passed down explicitly by the caller
    of the hierarchy's eviction choke point.
    """

    #: drift-tracker snapshot caps: bounded memory however long the run
    MAX_SNAPSHOTS = 256
    SNAPSHOT_WIDTH = 64

    def __init__(self):
        self.events: list[tuple] = []
        self._append = self.events.append
        self._next_decision = 0
        #: segment id -> eid of the last file event folded into it (the
        #: auditor writes it; decisions and moves inherit the flow)
        self.flow: dict = {}
        #: the file model the sids belong to (set by the runner)
        self.files = None
        #: engine-pass plan snapshots for the drift tracker:
        #: ``(t, ((sid, score), ...))``, capped
        self.snapshots: list[tuple] = []
        self._snapshot_stride = 1
        self._snapshot_seen = 0
        # hierarchy shape (set once by the runner): fast -> slow
        self.tier_names: list[str] = []
        self.tier_capacities: list[int] = []
        self.tier_bandwidths: dict[str, float] = {}
        self.tier_latencies: dict[str, float] = {}
        self.backing_name: Optional[str] = None
        self._tier_index: dict[str, int] = {}
        self._env = None

    # -- wiring ------------------------------------------------------------
    def bind_env(self, env) -> None:
        """Attach the virtual clock (the telemetry handle calls this)."""
        self._env = env

    def set_tiers(self, hierarchy, files=None) -> None:
        """Record the hierarchy shape the analyses need (names fast→slow,
        capacities, device bandwidth/latency for wasted-time estimates)
        and the file model that resolves the sids."""
        self.files = files
        self.tier_names = [t.name for t in hierarchy.tiers]
        self.tier_capacities = [int(t.capacity) for t in hierarchy.tiers]
        self.backing_name = hierarchy.backing.name
        self._tier_index = {n: i for i, n in enumerate(self.tier_names)}
        self._tier_index[self.backing_name] = len(self.tier_names)
        for t in list(hierarchy.tiers) + [hierarchy.backing]:
            self.tier_bandwidths[t.name] = float(t.profile.bandwidth)
            self.tier_latencies[t.name] = float(t.profile.latency)

    def tier_index(self, name: str) -> int:
        """Position of a tier name (0 = fastest; backing = len(tiers))."""
        return self._tier_index[name]

    @property
    def now(self) -> float:
        """Current virtual time (0.0 before the handle is bound)."""
        env = self._env
        return env.now if env is not None else 0.0

    # -- emission (hot path: one tuple append each) ------------------------
    def decision(self, sid: int, kind: str, score: float, rank: int,
                 src: str, dst: str, nbytes: int, moved: bool) -> int:
        """Record one Algorithm 1 outcome; returns its decision id."""
        did = self._next_decision
        self._next_decision = did + 1
        self._append(
            (EV_DECISION, self.now, did, sid, kind, score, rank,
             src, dst, nbytes, moved, self.flow.get(sid))
        )
        return did

    def move_done(self, did: int, sid: int, src: str, dst: str, nbytes: int) -> None:
        """A move instruction physically settled at its destination."""
        self._append(
            (EV_MOVE_DONE, self.now, did, sid, src, dst, nbytes, self.flow.get(sid))
        )

    def move_failed(self, did: int, sid: int, nbytes: int) -> None:
        """A move instruction terminally failed (retry budget exhausted)."""
        self._append((EV_MOVE_FAILED, self.now, did, sid, nbytes))

    def evict(self, sid: int, tier: str, cause: str) -> None:
        """A segment left its cache tier for ``cause``."""
        self._append((EV_EVICT, self.now, sid, tier, cause))

    def read(self, sid: int, served: str, origin: str, hit: bool,
             nbytes: int, pid: int, t0: float, size: int) -> None:
        """One segment of a read request that started at ``t0`` and asked
        for ``size`` bytes, and where the segment was served from."""
        self._append(
            (EV_READ, self.now, sid, served, origin, hit, nbytes, pid, t0, size)
        )

    def snapshot(self, plan) -> None:
        """Capture the head of an engine pass's hotness-sorted plan.

        ``plan`` is the engine's ``[(sid, score), ...]`` sorted hotter
        first; its first ``SNAPSHOT_WIDTH`` entries are kept.  To stay
        bounded on arbitrarily long runs the log keeps at most
        ``MAX_SNAPSHOTS`` snapshots by decimation: once full, every second
        retained snapshot is dropped and the sampling stride doubles —
        coverage stays spread over the whole run rather than truncating
        at the front.
        """
        self._snapshot_seen += 1
        if (self._snapshot_seen - 1) % self._snapshot_stride:
            return
        if len(self.snapshots) >= self.MAX_SNAPSHOTS:
            self.snapshots = self.snapshots[::2]
            self._snapshot_stride *= 2
            if (self._snapshot_seen - 1) % self._snapshot_stride:
                return
        head = plan[: self.SNAPSHOT_WIDTH]
        self.snapshots.append(
            (self.now, tuple((k, float(s)) for k, s in head))
        )

    # -- introspection -----------------------------------------------------
    @property
    def decisions(self) -> int:
        """Decisions recorded so far."""
        return self._next_decision

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ProvenanceLog events={len(self.events)} "
            f"decisions={self._next_decision}>"
        )
