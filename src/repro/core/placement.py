"""The Hierarchical Data Placement Engine (paper §III-A.3, §III-D, Alg. 1).

Periodically drains the auditor's vector of updated segments, recomputes
their Eq. 1 scores (vectorised), and maps them onto the tiers of the
hierarchy: hotter segments end up in higher tiers, displaced segments
are demoted recursively — the exclusive-cache realisation of the file
heatmap.  Placement is triggered *by score changes*, never by
application accesses — HFetch's data-centric, server-push property.

Two user-configurable trigger conditions fire the engine, whichever
comes first (§III-D): a time interval (default 1 s) and a number of
accumulated score updates (default 100; Fig. 3(b) calls 1 / 100 / 1024
"high" / "medium" / "low" reactiveness).

Algorithm 1 (quoted in DESIGN.md §1) places a segment in the first tier
whose minimum resident score it beats, demoting that tier's coldest
residents one tier down (recursively) to make room.  Notes on how this
realisation keeps to the text:

* A tier's minimum is the smallest score currently resident (−inf for a
  tier the segment simply fits in, so cold segments still fill free
  space — the paper's worked example updates RAM's min from 2.0 to 2.2
  after the 2.0-scored segment is displaced, i.e. min tracks
  residents).  It is the engine's per-tier lazy min-heap of
  ``(score, seq, segment id)`` entries, not an attribute of the tier: a
  refresh pushes a new entry, and an entry whose segment has left the
  tier or been re-scored is stale.  :meth:`_peek_min` is the one
  staleness check; it pops stale entries off the top, and runs after
  every push and every demotion as well as where a minimum is read.
  When those pops happen matters: a stale entry left deeper in the heap
  is live again if its segment comes back to the tier with the same
  score (common for fully decayed 0.0 scores), and then wins ties on
  its older ``seq``.  Popping only where a minimum is read changes
  Fig. 4(a)'s HFetch row (27 → 28 evictions).  The paper's per-tier
  maximum is not kept: no decision reads it.
* ``GetSegments(score, tier)`` returns the coldest residents with score
  below the incoming score, just enough to make room; victims'
  scores are recomputed (decayed) before the comparison.
* Segments with exactly equal scores are placed in random order (the
  paper's default tie policy).
"""

from __future__ import annotations

import heapq
from typing import Generator, Optional

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.io_clients import IOClientPool, MoveInstruction
from repro.sim.core import Environment, Event, Interrupt, Process
from repro.sim.rng import SeededStream
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.tier import StorageTier

__all__ = ["PlacementEngine"]

#: Per-plan-entry computation cost of the placement engine, seconds.
PLACEMENT_SERVICE_TIME = 5e-6

#: Demotion hysteresis: a newcomer only displaces a resident segment when
#: its score exceeds the resident's by this factor.  Guards the engine
#: against ping-pong movement between near-equal scores ("to avoid
#: excessive data movements among the tiers", §III-D).
DEMOTION_HYSTERESIS = 1.25

#: Score discount per lookahead hop — a successor inherits this fraction
#: of its predecessor's score per step of distance.
LOOKAHEAD_DISCOUNT = 0.85


class PlacementEngine:
    """Algorithm 1 driver with interval / update-count triggers."""

    def __init__(
        self,
        env: Environment,
        config: HFetchConfig,
        hierarchy: StorageHierarchy,
        auditor: FileSegmentAuditor,
        io_clients: IOClientPool,
    ):
        self.env = env
        self.config = config
        self.hierarchy = hierarchy
        self.auditor = auditor
        self.io_clients = io_clients
        self._rng = SeededStream(config.seed, "placement-engine")
        # engine-side score map and per-tier lazy min-heaps, by segment
        # id; ``seq`` is unique, so an entry's id is never compared
        self._scores: dict[int, float] = {}
        self._heaps: dict[str, list[tuple[float, int, int]]] = {
            t.name: [] for t in hierarchy.tiers
        }
        self._seq = 0
        self._count_trigger: Optional[Event] = None
        self._proc: Optional[Process] = None
        self._running = False
        self._updates_since_pass = 0
        # instrumentation
        self.passes = 0
        self.segments_placed = 0
        self.segments_demoted = 0
        self.segments_rejected = 0
        self.plan_time = 0.0
        self.tier_failures = 0
        self.segments_rehomed = 0
        # telemetry and its event log (None in normal runs: zero overhead)
        self.telemetry = None
        self._prov = None
        self._plan_rank = -1
        self._rehoming = False
        auditor.add_update_listener(self._on_score_update)

    def bind_telemetry(self, tel) -> None:
        """Record decisions into a live handle's event log, register the
        ``engine.place`` stream its finalize fills from the log, and fold
        every pass's dirty-vector size into ``engine.dirty_batch`` at the
        end of the run (the ``engine.pass`` spans stop at the retention
        cap; the histogram does not)."""
        self.telemetry = tel
        self._prov = tel.provenance
        tel.tracer.stream("engine.place", "engine", "engine", fields=("tier", "score"))
        sizes = self._pass_sizes = []

        def _fold_pass_sizes() -> None:
            if sizes:
                h = tel.registry.histogram(
                    "engine.dirty_batch", lo=1.0, growth=2.0, buckets=24
                )
                for n in sizes:
                    h.observe(float(n))

        tel.add_finalizer(_fold_pass_sizes)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Spawn the trigger loop."""
        if self._running:
            return
        self._running = True
        self._proc = self.env.process(self._trigger_loop(), name="placement-engine")

    def stop(self) -> None:
        """Interrupt the trigger loop."""
        self._running = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("shutdown")
            self._proc = None

    # -- triggers ---------------------------------------------------------------
    def _on_score_update(self, n: int) -> None:
        """Count ``n`` score updates from one auditor fold."""
        self._updates_since_pass += n
        if (
            self._updates_since_pass >= self.config.engine_update_threshold
            and self._count_trigger is not None
            and not self._count_trigger.triggered
        ):
            self._count_trigger.succeed("count")

    def _trigger_loop(self) -> Generator:
        try:
            while True:
                self._count_trigger = self.env.event()
                # arm the count trigger retroactively if already over threshold
                if self._updates_since_pass >= self.config.engine_update_threshold:
                    self._count_trigger.succeed("count")
                interval = self.env.timeout(self.config.engine_interval)
                yield self.env.any_of([interval, self._count_trigger])
                self._count_trigger = None
                yield from self.run_pass()
        except Interrupt:
            return

    # -- one placement pass -----------------------------------------------------
    def run_pass(self) -> Generator:
        """Drain the dirty vector and re-place every updated segment."""
        self._updates_since_pass = 0
        dirty = self.auditor.drain_dirty()
        # only files inside an open prefetching epoch are targeted (§III-B)
        in_epoch, file_id_of = self.auditor.in_epoch, self.auditor.fs.file_id_of
        dirty = [k for k in dirty if in_epoch(file_id_of(k))]
        if not dirty:
            return
        self.passes += 1
        tel = self.telemetry
        pass_span = None
        if tel is not None:
            self._pass_sizes.append(len(dirty))
            pass_span = tel.tracer.begin(
                "engine.pass", track="engine", cat="engine", dirty=len(dirty)
            )
            placed_before = self.segments_placed
            demoted_before = self.segments_demoted
        start = self.env.now
        now = self.env.now
        scores = self.auditor.batch_score(dirty, now)
        # planning cost: O(m * n) work split across the engine threads
        work = len(dirty) * PLACEMENT_SERVICE_TIME
        yield self.env.timeout(work / max(1, self.config.engine_threads))
        candidates = list(self._candidates(dirty, scores.tolist()).items())
        # hotter first; ties broken randomly (paper's default policy).
        # One draw per candidate, in candidate order, from the same stream.
        draws = self._rng.uniform_array(len(candidates)).tolist()
        order = sorted(
            range(len(candidates)), key=lambda i: (-candidates[i][1], draws[i])
        )
        plan = [candidates[i] for i in order]
        prov = self._prov
        if prov is not None:
            prov.snapshot(plan)
        for rank, (key, score) in enumerate(plan):
            nbytes = self._segment_bytes(key)
            if nbytes is None or nbytes == 0:
                continue
            if prov is not None:
                self._plan_rank = rank
            self._calculate_placement(key, nbytes, score, 0)
        self._plan_rank = -1
        self.plan_time += self.env.now - start
        if pass_span is not None:
            tel.tracer.end(
                pass_span,
                placed=self.segments_placed - placed_before,
                demoted=self.segments_demoted - demoted_before,
            )

    def _candidates(self, dirty: list[int], scores: list[float]) -> dict[int, float]:
        """Dirty segments plus their sequencing lookahead, best score each.

        Segments "connected" to the hot ones (the most likely successor,
        falling back to the spatial next segment, id + 1 within the file)
        are candidates at a score discounted per hop.  Successors cannot
        change within the synchronous walk, so a walk that reaches a
        segment an earlier walk already expanded with at least its value
        and hops left would only repeat no-op writes: it stops there, and
        the result (values and insertion order) is that of the full walks.
        """
        depth = self.config.lookahead_depth
        discount = LOOKAHEAD_DISCOUNT
        stats_of = self.auditor.stats_of
        file_of = self.auditor.fs.file_of
        candidates: dict[int, float] = {}
        # segment -> (value, hops left) it was last expanded with
        walked: dict[int, tuple[float, int]] = {}
        for key, score in zip(dirty, scores):
            if score <= 0.0:
                continue
            if score > candidates.get(key, 0.0):
                candidates[key] = score
            current, value, left = key, score, depth
            while left:
                seen = walked.get(current)
                if seen is not None and seen[0] >= value and seen[1] >= left:
                    break
                walked[current] = (value, left)
                value *= discount
                stats = stats_of(current)
                nxt = stats.best_successor if stats is not None else None
                if nxt is None:
                    # spatial fallback: the next segment of the same file
                    f = file_of(current)
                    nxt = current + 1
                    if f is None or nxt - f.base >= f.num_segments:
                        break
                if value > candidates.get(nxt, 0.0):
                    candidates[nxt] = value
                current = nxt
                left -= 1
        return candidates

    # -- Algorithm 1 ----------------------------------------------------------------
    def _segment_bytes(self, key: int) -> Optional[int]:
        stats = self.auditor.stats_of(key)
        if stats is not None:
            return stats.nbytes
        f = self.auditor.fs.file_of(key)
        return f.segment_bytes(key) if f is not None else None

    def _peek_min(self, tier: StorageTier) -> Optional[tuple[float, int, int]]:
        """The tier's live minimum entry, popping stale ones above it."""
        heap = self._heaps[tier.name]
        locate, scores = self.hierarchy.locate, self._scores
        while heap:
            top = heap[0]
            key = top[2]
            if locate(key) is not tier or scores.get(key) != top[0]:
                heapq.heappop(heap)  # stale
                continue
            return top
        return None

    def _push(self, tier: StorageTier, key: int, score: float) -> None:
        self._seq += 1
        self._scores[key] = score
        heapq.heappush(self._heaps[tier.name], (score, self._seq, key))
        self._peek_min(tier)  # keep the top live (see the module notes)

    def _calculate_placement(
        self, key: int, nbytes: int, score: float, tier_idx: int
    ) -> None:
        hierarchy = self.hierarchy
        tiers = hierarchy.tiers
        # each turn that neither places nor refreshes sinks one tier
        for tier_idx in range(tier_idx, len(tiers)):
            tier = tiers[tier_idx]
            if not tier.available:
                continue
            current = hierarchy.locate(key)
            if current is tier:
                self._push(tier, key, score)  # refresh score in place
                return
            if current is not None and tier_idx < hierarchy.tier_index(current):
                # candidate promotion: only move a resident segment *up* when
                # its score has genuinely risen since it was placed ("if an
                # updated segment score violates its current tier placement",
                # §III-D) — otherwise refresh in place.  Without this, every
                # freshly-read single-pass segment would cascade through the
                # tiers and the movement churn would drown the devices.
                last = self._scores.get(key, 0.0)
                if score <= last * DEMOTION_HYSTERESIS:
                    self._push(current, key, score)
                    return
            if tier.can_fit(nbytes):
                self._place(key, nbytes, score, tier)
                return
            # admission: the segment must beat the tier's live minimum
            top = self._peek_min(tier)
            if top is None or score > top[0]:
                self._demote_segments(score, nbytes, tier, tier_idx)
                if tier.can_fit(nbytes):
                    self._place(key, nbytes, score, tier)
                    return
                # demotion could not make room (all residents hotter) — sink
        # past the last tier: the segment lives only at its origin
        self._evict(key)
        self.segments_rejected += 1

    def _demote_segments(
        self, score: float, needed: int, tier: StorageTier, tier_idx: int
    ) -> None:
        """Demote the coldest residents scoring below ``score`` until
        ``needed`` bytes fit (GetSegments + the demotion loop of Alg. 1)."""
        heap = self._heaps[tier.name]
        now = self.env.now
        while not tier.can_fit(needed):
            top = self._peek_min(tier)
            if top is None:
                break
            old_score, _seq, victim = top
            current = self.auditor.score_of(victim, now)  # decayed, fresh
            if current * DEMOTION_HYSTERESIS >= score:
                # the coldest resident is still hotter than the newcomer
                if current != old_score:
                    heapq.heappop(heap)
                    self._push(tier, victim, current)
                    continue
                break
            heapq.heappop(heap)
            victim_bytes = tier.size_of(victim)
            self.segments_demoted += 1
            # cascade victims carry no plan rank of their own
            outer_rank, self._plan_rank = self._plan_rank, -1
            self._calculate_placement(victim, victim_bytes, current, tier_idx + 1)
            self._plan_rank = outer_rank
        self._peek_min(tier)  # keep the top live (see the module notes)

    def _place(self, key: int, nbytes: int, score: float, tier: StorageTier) -> None:
        src_name = self.io_clients.serving_tier_name(key)
        if src_name is None:
            src_name = self._origin_of(key)
        prov = self._prov
        decision = -1
        if prov is not None:
            current = self.hierarchy.locate(key)
            if self._rehoming:
                kind = "rehome"
            elif current is None:
                kind = "place"
            elif self.hierarchy.tier_index(tier) < self.hierarchy.tier_index(current):
                kind = "promote"
            else:
                kind = "demote"
            decision = prov.decision(
                key, kind, score, self._plan_rank, src_name, tier.name,
                nbytes, src_name != tier.name,
            )
        self.hierarchy.place(key, nbytes, tier)
        self._push(tier, key, score)
        if src_name != tier.name:
            self.io_clients.submit(
                MoveInstruction(
                    key=key,
                    nbytes=nbytes,
                    src_name=src_name,
                    dst_name=tier.name,
                    home_node=self.auditor.home_node(key),
                    decision=decision,
                )
            )
        self.segments_placed += 1

    def _origin_of(self, key: int) -> str:
        f = self.auditor.fs.lookup(self.auditor.fs.file_id_of(key))
        return f.origin if f is not None else self.hierarchy.backing.name

    def _evict(self, key: int, cause: str = "rejected") -> None:
        self._scores.pop(key, None)
        self.hierarchy.evict(key, cause=cause)
        self.io_clients.drop_in_flight(key)

    # -- fault handling (tier outage & recovery) ----------------------------------
    def on_tier_failed(self, tier: StorageTier) -> int:
        """Handle a tier outage: drain it and re-home the displaced set.

        The exclusive cache sits above a durable backing store, so a
        failed tier loses cached copies only.  Each displaced segment is
        pushed back through Algorithm 1 starting at the next tier down,
        so hot data lands in the best *surviving* tier; segments that no
        longer fit anywhere sink back to backing-only.  Returns how many
        segments were re-homed into a surviving tier.
        """
        idx = self.hierarchy.tier_index(tier)
        displaced = self.hierarchy.fail_tier(tier)
        self._heaps[tier.name] = []
        self.tier_failures += 1
        now = self.env.now
        rehomed = 0
        prov = self._prov
        if prov is not None:
            # fail_tier drops residents without going through evict();
            # record the displacement here so attribution sees the old
            # copies die before the re-homing decisions are credited
            for key, _nbytes in displaced:
                prov.evict(key, tier.name, "displaced")
            self._rehoming = True
        try:
            for key, nbytes in displaced:
                self.io_clients.drop_in_flight(key)
                score = self._scores.pop(key, None)
                if score is None:
                    score = self.auditor.score_of(key, now)
                self._calculate_placement(key, nbytes, score, idx + 1)
                if self.hierarchy.locate(key) is not None:
                    rehomed += 1
        finally:
            self._rehoming = False
        self.segments_rehomed += rehomed
        return rehomed

    def on_tier_recovered(self, tier: StorageTier) -> None:
        """Bring a failed tier back; it refills on subsequent passes."""
        self.hierarchy.recover_tier(tier)

    # -- invalidation (write events, §III-B) --------------------------------------
    def invalidate_file(self, file_id: str) -> int:
        """Evict every cached segment of a rewritten file (its current id
        range, in id order)."""
        scores = self._scores
        victims = [k for k in self.auditor.fs.ids_of(file_id) if k in scores]
        for key in victims:
            self._evict(key, cause="invalidated")
        return len(victims)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PlacementEngine passes={self.passes} placed={self.segments_placed} "
            f"demoted={self.segments_demoted}>"
        )
