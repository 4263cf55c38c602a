"""Decision-provenance recording for the diagnosis layer.

A :class:`ProvenanceLog` is the lightweight in-run recording half of the
attribution engine: every placement decision, move outcome, eviction and
application read appends one small tuple to a single flat event list.
The *append order* of that list is the simulation's causal order (the
DES executes one callback at a time), so the offline replay in
:mod:`repro.diagnosis.attribution` never has to merge or sort streams —
it walks the list once.

Recording never advances the virtual clock and never touches any seeded
RNG, so a run with diagnosis enabled produces the same
:class:`~repro.metrics.collector.RunResult` as one without (the
equivalence test in ``tests/diagnosis/`` enforces this), and two
same-seed runs produce byte-identical event lists — which is what makes
waste classification deterministic.

Segment keys are interned to dense integer ids (``sid``) on first
sight; tier names and cause strings are ordinary interned Python
strings, so an event append costs one tuple allocation plus pointer
stores.
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

        (EV_DECISION,    t, did, sid, kind, score, rank, src, dst, nbytes, moved)
        (EV_MOVE_DONE,   t, did, sid, src, dst, nbytes)
        (EV_MOVE_FAILED, t, did, sid, nbytes)
        (EV_EVICT,       t, sid, tier, cause)
        (EV_READ,        t, sid, served, origin, hit, nbytes, pid)

    ``did`` is a monotonically increasing decision id; ``rank`` is the
    segment's position in the engine pass's hotness-sorted plan (−1 for
    decisions made outside a pass ordering, e.g. demotion-cascade
    victims and fault re-homing); ``moved`` records whether the decision
    submitted a physical :class:`~repro.core.io_clients.MoveInstruction`
    (a ledger-only placement on the tier already serving the segment
    moves no bytes and therefore has no waste class).

    An eviction's ``cause`` ("evicted", "rejected", "invalidated",
    "displaced", "move-failed") is passed down explicitly by the caller
    of the hierarchy's eviction choke point.
    """

    #: drift-tracker snapshot caps: bounded memory however long the run
    MAX_SNAPSHOTS = 256
    SNAPSHOT_WIDTH = 64

    def __init__(self, max_snapshots: int = MAX_SNAPSHOTS,
                 snapshot_width: int = SNAPSHOT_WIDTH):
        self.events: list[tuple] = []
        self._append = self.events.append
        #: sid -> SegmentKey (interning table; index is the sid)
        self.keys: list = []
        self._ids: dict = {}
        self._next_decision = 0
        #: engine-pass plan snapshots for the drift tracker:
        #: ``(t, ((sid, score), ...))``, capped
        self.snapshots: list[tuple] = []
        self.max_snapshots = max_snapshots
        self.snapshot_width = snapshot_width
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

    def set_tiers(self, hierarchy) -> None:
        """Record the hierarchy shape the analyses need (names fast→slow,
        capacities, device bandwidth/latency for wasted-time estimates)."""
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

    def sid(self, key) -> int:
        """Dense integer id for a segment key (interned on first sight)."""
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self.keys)
            self._ids[key] = sid
            self.keys.append(key)
        return sid

    # -- emission (hot path: one tuple append each) ------------------------
    def decision(self, key, kind: str, score: float, rank: int,
                 src: str, dst: str, nbytes: int, moved: bool) -> int:
        """Record one Algorithm 1 outcome; returns its decision id."""
        did = self._next_decision
        self._next_decision = did + 1
        self._append(
            (EV_DECISION, self.now, did, self.sid(key), kind, score, rank,
             src, dst, nbytes, moved)
        )
        return did

    def move_done(self, did: int, key, src: str, dst: str, nbytes: int) -> None:
        """A move instruction physically settled at its destination."""
        self._append((EV_MOVE_DONE, self.now, did, self.sid(key), src, dst, nbytes))

    def move_failed(self, did: int, key, nbytes: int) -> None:
        """A move instruction terminally failed (retry budget exhausted)."""
        self._append((EV_MOVE_FAILED, self.now, did, self.sid(key), nbytes))

    def evict(self, key, tier: str, cause: str) -> None:
        """A segment left its cache tier for ``cause``."""
        self._append((EV_EVICT, self.now, self.sid(key), tier, cause))

    def read(self, key, served: str, origin: str, hit: bool,
             nbytes: int, pid: int) -> None:
        """One application segment read and where it was served from."""
        self._append(
            (EV_READ, self.now, self.sid(key), served, origin, hit, nbytes, pid)
        )

    def snapshot(self, plan) -> None:
        """Capture the head of an engine pass's hotness-sorted plan.

        ``plan`` is the engine's ``[(key, score), ...]`` sorted hotter
        first.  To stay bounded on arbitrarily long runs the log keeps at
        most ``max_snapshots`` snapshots by decimation: once full, every
        second retained snapshot is dropped and the sampling stride
        doubles — coverage stays spread over the whole run rather than
        truncating at the front.
        """
        self._snapshot_seen += 1
        if (self._snapshot_seen - 1) % self._snapshot_stride:
            return
        if len(self.snapshots) >= self.max_snapshots:
            self.snapshots = self.snapshots[::2]
            self._snapshot_stride *= 2
            if (self._snapshot_seen - 1) % self._snapshot_stride:
                return
        head = plan[: self.snapshot_width]
        self.snapshots.append(
            (self.now, tuple((self.sid(k), float(s)) for k, s in head))
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
            f"decisions={self._next_decision} segments={len(self.keys)}>"
        )
