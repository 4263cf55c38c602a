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

Algorithm 1 (verbatim from the paper)::

    procedure CalculatePlacement(segment, tier)
        if segment.score > tier.min_score then
            if segment cannot fit in this tier then
                tier.min_score <- segment.score
                DemoteSegments(segment.score, tier)
            if segment.score > tier.max_score then
                tier.max_score <- segment.score
            place segment in this tier
        else
            CalculatePlacement(segment, tier.next)

    procedure DemoteSegments(score, tier)
        segments <- GetSegments(score, tier)
        for each s in segments do
            CalculatePlacement(s, tier.next)

Implementation notes kept honest to the text:

* ``tier.min_score`` is the smallest score currently resident (−inf for
  an empty/not-full tier, so cold segments still fill free space — the
  paper's worked example updates RAM's min from 2.0 to 2.2 after the
  2.0-scored segment is displaced, i.e. min tracks residents).
* ``GetSegments(score, tier)`` returns the coldest residents with score
  below the incoming score, just enough to make room; victims'
  scores are recomputed (decayed) before the comparison.
* Segments with exactly equal scores are placed in random order (the
  paper's default tie policy).
"""

from __future__ import annotations

import heapq
import math
from typing import Generator, Optional

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.io_clients import IOClientPool, MoveInstruction
from repro.sim.core import Environment, Event, Interrupt, Process
from repro.sim.rng import SeededStream
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier

__all__ = ["PlacementEngine"]


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
        # engine-side score map and per-tier lazy min-heaps
        self._scores: dict[SegmentKey, float] = {}
        self._heaps: dict[str, list[tuple[float, int, SegmentKey]]] = {
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
        # telemetry (None in normal runs: zero overhead)
        self.telemetry = None
        self._h_dirty = None
        self._place_mark = None
        self._key_flow = None
        # decision provenance (diagnosis runs only; same None pattern)
        self._prov = None
        self._plan_rank = -1
        self._rehoming = False
        auditor.add_update_listener(self._on_score_update)

    def bind_telemetry(self, telemetry) -> None:
        """Open the placement-decision trace stream on a live handle."""
        from repro.telemetry.handle import live

        tel = live(telemetry)
        if tel is None:
            return
        self.telemetry = tel
        self._key_flow = tel.key_flow
        self._prov = tel.provenance
        self._place_mark = tel.tracer.stream(
            "engine.place", "engine", "engine", fields=("tier", "score")
        ).append

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
    def _on_score_update(self, _total: int) -> None:
        self._updates_since_pass += 1
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
        dirty = [k for k in dirty if self.auditor.in_epoch(k.file_id)]
        if not dirty:
            return
        self.passes += 1
        tel = self.telemetry
        pass_span = None
        if tel is not None:
            if self._h_dirty is None:
                self._h_dirty = tel.registry.histogram(
                    "engine.dirty_batch", lo=1.0, growth=2.0, buckets=24
                )
            self._h_dirty.observe(float(len(dirty)))
            pass_span = tel.tracer.begin(
                "engine.pass", track="engine", cat="engine", dirty=len(dirty)
            )
            placed_before = self.segments_placed
            demoted_before = self.segments_demoted
        start = self.env.now
        now = self.env.now
        scores = self.auditor.batch_score(dirty, now)
        # planning cost: O(m * n) work split across the engine threads
        work = len(dirty) * self.config.placement_service_time
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

    def _candidates(
        self, dirty: list[SegmentKey], scores: list[float]
    ) -> dict[SegmentKey, float]:
        """Dirty segments plus their sequencing lookahead, best score each.

        Segments "connected" to the hot ones (the most likely successor,
        falling back to the spatial next segment) are candidates at a
        score discounted per hop.  Successors cannot change within the
        synchronous walk, so a walk that reaches a segment an earlier walk
        already expanded with at least its value and hops left would only
        repeat no-op writes: it stops there, and the result (values and
        insertion order) is that of the full walks.
        """
        depth = self.config.lookahead_depth
        discount = self.config.lookahead_discount
        stats_of = self.auditor.stats_of
        files = self.auditor.fs
        candidates: dict[SegmentKey, float] = {}
        # segment -> (value, hops left) it was last expanded with
        walked: dict[SegmentKey, tuple[float, int]] = {}
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
                    fid = current.file_id
                    if not files.exists(fid) or current.index + 1 >= files.get(fid).num_segments:
                        break
                    nxt = SegmentKey(fid, current.index + 1)
                if value > candidates.get(nxt, 0.0):
                    candidates[nxt] = value
                current = nxt
                left -= 1
        return candidates

    # -- Algorithm 1 ----------------------------------------------------------------
    def _segment_bytes(self, key: SegmentKey) -> Optional[int]:
        stats = self.auditor.stats_of(key)
        if stats is not None:
            return stats.nbytes
        if self.auditor.fs.exists(key.file_id):
            f = self.auditor.fs.get(key.file_id)
            if key.index < f.num_segments:
                return f.segment_bytes(key)
        return None

    def _tier_min_score(self, tier: StorageTier, nbytes: int) -> float:
        """Admission threshold: −inf while the segment would simply fit."""
        if tier.can_fit(nbytes):
            return -math.inf
        top = self._peek_min(tier)
        return top if top is not None else -math.inf

    def _peek_min(self, tier: StorageTier) -> Optional[float]:
        heap = self._heaps[tier.name]
        while heap:
            score, _seq, key = heap[0]
            if self.hierarchy.locate(key) is not tier or self._scores.get(key) != score:
                heapq.heappop(heap)  # stale
                continue
            return score
        return None

    def _push(self, tier: StorageTier, key: SegmentKey, score: float) -> None:
        self._seq += 1
        self._scores[key] = score
        heapq.heappush(self._heaps[tier.name], (score, self._seq, key))
        if score > tier.max_score:
            tier.max_score = score
        top = self._peek_min(tier)
        tier.min_score = top if top is not None else math.inf

    def _calculate_placement(
        self, key: SegmentKey, nbytes: int, score: float, tier_idx: int
    ) -> None:
        tiers = self.hierarchy.tiers
        if tier_idx >= len(tiers):
            # past the last tier: the segment lives only at its origin
            self._evict(key)
            self.segments_rejected += 1
            return
        tier = tiers[tier_idx]
        if not tier.available:
            self._calculate_placement(key, nbytes, score, tier_idx + 1)
            return
        current = self.hierarchy.locate(key)
        if current is tier:
            self._push(tier, key, score)  # refresh score in place
            return
        if current is not None and tier_idx < self.hierarchy.tier_index(current):
            # candidate promotion: only move a resident segment *up* when
            # its score has genuinely risen since it was placed ("if an
            # updated segment score violates its current tier placement",
            # §III-D) — otherwise refresh in place.  Without this, every
            # freshly-read single-pass segment would cascade through the
            # tiers and the movement churn would drown the devices.
            last = self._scores.get(key, 0.0)
            if score <= last * self.config.demotion_hysteresis:
                self._push(current, key, score)
                return
        if score > self._tier_min_score(tier, nbytes):
            if not tier.can_fit(nbytes):
                self._demote_segments(score, nbytes, tier, tier_idx)
            if tier.can_fit(nbytes):
                self._place(key, nbytes, score, tier)
                return
            # demotion could not make room (all residents hotter) — sink
        self._calculate_placement(key, nbytes, score, tier_idx + 1)

    def _demote_segments(
        self, score: float, needed: int, tier: StorageTier, tier_idx: int
    ) -> None:
        """Demote the coldest residents scoring below ``score`` until
        ``needed`` bytes fit (GetSegments + the demotion loop of Alg. 1)."""
        heap = self._heaps[tier.name]
        now = self.env.now
        while not tier.can_fit(needed) and heap:
            old_score, _seq, victim = heap[0]
            if (
                self.hierarchy.locate(victim) is not tier
                or self._scores.get(victim) != old_score
            ):
                heapq.heappop(heap)
                continue
            current = self.auditor.score_of(victim, now)  # decayed, fresh
            if current * self.config.demotion_hysteresis >= score:
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
        top = self._peek_min(tier)
        tier.min_score = top if top is not None else math.inf

    def _place(self, key: SegmentKey, nbytes: int, score: float, tier: StorageTier) -> None:
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
                    issued_at=self.env.now,
                    decision=decision,
                )
            )
        self.segments_placed += 1
        mark = self._place_mark
        if mark is not None:
            mark((self.env.now, self._key_flow.get(key), tier.name, score))

    def _origin_of(self, key: SegmentKey) -> str:
        if self.auditor.fs.exists(key.file_id):
            return self.auditor.fs.get(key.file_id).origin
        return self.hierarchy.backing.name

    def _evict(self, key: SegmentKey, cause: str = "rejected") -> None:
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
        """Evict every cached segment of a rewritten file."""
        victims = [k for k in self._scores if k.file_id == file_id]
        for key in victims:
            self._evict(key, cause="invalidated")
        return len(victims)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PlacementEngine passes={self.passes} placed={self.segments_placed} "
            f"demoted={self.segments_demoted}>"
        )
