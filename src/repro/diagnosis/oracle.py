"""Clairvoyant counterfactuals: how far is Algorithm 1 from an oracle?

Two bounds are computed from the recorded read sequence alone, with no
re-simulation:

**Ceiling** (the dominance bound, tested invariant).  Per-tier hit
ratios are defined *cumulatively*: the prefix-``i`` hit ratio counts
reads served from some tier at index ≤ ``i`` that is also faster than
the file's origin (the run's hit definition).  For every prefix the
ceiling replays the reads grouped by identical virtual timestamp and
asks: with perfect future knowledge, zero movement cost, and only the
prefix's pooled capacity as a constraint, how many of this instant's
reads could have been cache hits?  That is a fractional knapsack per
instant — unique segments weighted by how many ranks read them at that
instant — solved greedily by density.  Whatever set of segments the
*actual* run had co-resident at that instant also fits the pooled
capacity, so the fractional optimum is ≥ the actual hits at every
instant and every prefix: **ceiling ≥ actual** holds by construction,
while concurrent multi-rank reads at one instant (e.g. Montage's shared
images) keep the ceiling strictly below 100% whenever they exceed a
small tier.  Cost: O(reads · tiers) after an O(reads log reads)
grouping — the per-instant greedy sorts at most the instant's unique
segments.

**Demand Belady** (informative baseline, *no* dominance claim).  The
classic clairvoyant demand-fetch cache (MIN): pooled capacity over the
tiers faster than origin, first access is a compulsory miss,
farthest-next-use eviction, O(reads log segments) via precomputed
per-segment access lists.  A prefetcher with lookahead can legitimately
*beat* demand Belady (it has no compulsory misses on predicted first
reads), so the report prints it as context, not as a bound.

Assumptions both bounds share (documented in the README): movement is
free and instantaneous, capacities are the only constraint, and the
recorded read sequence is taken as fixed (no timing feedback from
better placement).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import groupby

from repro.diagnosis.provenance import EV_READ

__all__ = ["analyze_oracle"]


def _reads(prov) -> list[tuple]:
    """(t, sid, served_idx, origin_idx, nbytes, hit) in time order."""
    idx = prov.tier_index
    out = []
    for ev in prov.events:
        if ev[0] == EV_READ:
            _tag, t, sid, served, origin, hit, nbytes, _pid, _t0, _size = ev
            out.append((t, sid, idx(served), idx(origin), nbytes, hit))
    return out


def _ceiling_hits(reads: list[tuple], prefix_caps: list[int]) -> list[float]:
    """Fractional-clairvoyant hit count per cumulative tier prefix."""
    n_tiers = len(prefix_caps)
    hits = [0.0] * n_tiers
    for _t, instant in groupby(reads, key=lambda r: r[0]):
        # unique segments of this instant: sid -> [multiplicity, bytes, origin]
        segs: dict[int, list] = {}
        for _rt, sid, _served, origin, nbytes, _hit in instant:
            if origin < 1:
                continue  # nothing is faster than a tier-0 origin
            entry = segs.get(sid)
            if entry is None:
                segs[sid] = [1, nbytes, origin]
            else:
                entry[0] += 1
        if not segs:
            continue
        # densest (most ranks served per byte held) first
        ordered = sorted(
            segs.values(), key=lambda e: (-(e[0] / e[1]) if e[1] else -math.inf)
        )
        o_max = max(e[2] for e in ordered)
        for i in range(n_tiers):
            # a prefix-i hit must come from a tier faster than the
            # origin, so the usable pool stops at min(i, origin-1)
            cap = prefix_caps[min(i, o_max - 1)]
            got = 0.0
            for mult, nbytes, _origin in ordered:
                if cap <= 0:
                    break
                if nbytes <= cap:
                    cap -= nbytes
                    got += mult
                else:
                    got += mult * (cap / nbytes)
                    cap = 0
            hits[i] += got
    return hits


def _belady_hits(reads: list[tuple], capacity: int) -> int:
    """Classic demand-fetch Belady (MIN) hits on a pooled cache."""
    if capacity <= 0:
        return 0
    # per-sid access positions for next-use lookups
    positions: dict[int, list[int]] = {}
    for pos, (_t, sid, _served, origin, _nb, _hit) in enumerate(reads):
        if origin >= 1:
            positions.setdefault(sid, []).append(pos)
    cursor = {sid: 0 for sid in positions}

    def next_use(sid: int, pos: int) -> float:
        lst = positions[sid]
        i = cursor[sid]
        while i < len(lst) and lst[i] <= pos:
            i += 1
        cursor[sid] = i
        return lst[i] if i < len(lst) else math.inf

    cached: dict[int, int] = {}  # sid -> nbytes
    used = 0
    heap: list[tuple] = []  # (-next_use, sid) lazily validated
    nexts: dict[int, float] = {}
    hits = 0
    for pos, (_t, sid, _served, origin, nbytes, _hit) in enumerate(reads):
        if origin < 1:
            continue
        nu = next_use(sid, pos)
        if sid in cached:
            hits += 1
            nexts[sid] = nu
            heappush(heap, (-nu, sid))
            continue
        if nbytes > capacity:
            continue
        evicted: list[int] = []
        bailed = False
        while used + nbytes > capacity:
            while heap and (heap[0][1] not in cached
                            or -heap[0][0] != nexts[heap[0][1]]):
                heappop(heap)  # stale
            if not heap:
                bailed = True
                break
            far, victim = heappop(heap)
            if -far <= nu:
                # every would-be victim is needed sooner: bypass
                heappush(heap, (far, victim))
                bailed = True
                break
            evicted.append(victim)
            used -= cached.pop(victim)
            nexts.pop(victim, None)
        if bailed:
            # roll nothing back; partial evictions just freed room early
            continue
        cached[sid] = nbytes
        used += nbytes
        nexts[sid] = nu
        heappush(heap, (-nu, sid))
    return hits


def analyze_oracle(prov) -> dict:
    """Per-prefix actual-vs-ceiling table plus the regret headline."""
    names = prov.tier_names
    caps = prov.tier_capacities
    if not names:
        return {"per_tier": [], "regret": 0.0, "reads": 0}
    reads = _reads(prov)
    total = len(reads)
    prefix_caps = []
    acc = 0
    for c in caps:
        acc += c
        prefix_caps.append(acc)

    # actual cumulative hits: hit AND served within the prefix
    actual = [0] * len(names)
    eligible = 0
    for _t, _sid, served, origin, _nb, hit in reads:
        if origin >= 1:
            eligible += 1
        if hit:
            for i in range(served, len(names)):
                actual[i] += 1

    ceiling = _ceiling_hits(reads, prefix_caps) if total else [0.0] * len(names)

    per_tier = []
    for i, name in enumerate(names):
        a = actual[i] / total if total else 0.0
        c = min(ceiling[i] / total, 1.0) if total else 0.0
        per_tier.append(
            {
                "tier": name,
                "cumulative_capacity_bytes": prefix_caps[i],
                "actual_hit_ratio": a,
                "ceiling_hit_ratio": c,
                "gap": c - a,
            }
        )

    # demand Belady on the pool faster than the (slowest) origin seen
    o_max = max((r[3] for r in reads), default=0)
    belady_pool = prefix_caps[min(len(names), o_max) - 1] if o_max >= 1 else 0
    belady = _belady_hits(reads, belady_pool)

    full = per_tier[-1] if per_tier else {"gap": 0.0}
    return {
        "reads": total,
        "eligible_reads": eligible,
        "per_tier": per_tier,
        "regret": full["gap"],
        "demand_belady_hit_ratio": belady / total if total else 0.0,
        "demand_belady_capacity_bytes": belady_pool,
    }
