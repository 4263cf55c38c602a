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
small tier.  Cost: O(reads log reads) to sort each instant's segments,
then O(reads · tiers) numpy work for every instant's greedy at once.

**Demand Belady** (informative baseline, *no* dominance claim).  The
classic clairvoyant demand-fetch cache (MIN): pooled capacity over the
tiers faster than origin, first access is a compulsory miss,
farthest-next-use eviction, O(reads log reads) with each read's next
use taken from one reverse pass.  A prefetcher with lookahead can legitimately
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
from typing import Optional

import numpy as np

from repro.diagnosis.provenance import ReadIndex

__all__ = ["analyze_oracle"]


def _ceiling_hits(reads: ReadIndex, prefix_caps: list[int]) -> list[float]:
    """Fractional-clairvoyant hit count per cumulative tier prefix.

    An instant
    is a run of reads at one virtual time; only its reads with an origin
    below tier 0 count.  Each instant's greedy runs for all instants at
    once: its unique segments (multiplicity, bytes and origin from their
    first read) are ordered densest first, ties in order of first read;
    every segment that fits the bytes the earlier ones left counts
    whole, and the first that does not counts the fraction that fits
    and ends the instant.  Whole segments add integers, which are exact
    in floats, so an instant's hits carry one rounding, as in a ``+=``
    loop.  The instants are added up in time order with
    ``np.add.accumulate``, which adds strictly left to right as a
    ``+=`` loop does (``np.sum`` and ``sum()`` round differently).
    """
    n_tiers = len(prefix_caps)
    eligible = np.flatnonzero(reads.origin >= 1)
    if not len(eligible):
        return [0.0] * n_tiers
    t = reads.t
    instant = (np.cumsum(np.r_[True, t[1:] != t[:-1]]) - 1)[eligible]
    sid = np.array(reads.sid)[eligible]

    # unique segments per instant, each from its first read
    by_seg = np.lexsort((eligible, sid, instant))
    head = np.flatnonzero(
        np.r_[True, np.diff(instant[by_seg]) != 0]
        | np.r_[True, sid[by_seg][1:] != sid[by_seg][:-1]]
    )
    mult = np.diff(np.r_[head, len(by_seg)])
    first = eligible[by_seg[head]]
    nbytes = reads.nbytes[first]
    origin = reads.origin[first]
    seg_instant = instant[by_seg[head]]

    # densest (most ranks served per byte held) first
    density = np.full(len(mult), np.inf)
    np.divide(mult, nbytes, out=density, where=nbytes > 0)
    order = np.lexsort((first, -density, seg_instant))
    mult, nbytes, origin = mult[order], nbytes[order], origin[order]
    opens = np.r_[True, np.diff(seg_instant[order]) != 0]
    starts = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    taken = np.cumsum(nbytes) - nbytes
    taken -= taken[starts][group]  # bytes of the instant's earlier segments
    # a prefix-i hit must come from a tier faster than the origin, so
    # the usable pool stops at min(i, origin-1)
    o_max = np.maximum.reduceat(origin, starts)
    caps = np.array(prefix_caps, dtype=np.int64)
    position = np.arange(len(mult))
    ends = np.r_[starts[1:], len(mult)]

    got = np.empty((len(starts), n_tiers))
    for i in range(n_tiers):
        left = caps[np.minimum(i, o_max - 1)][group] - taken
        fits = (left > 0) & (nbytes <= left)
        # the greedy stops at the instant's first segment that does not fit
        stop = np.minimum.reduceat(np.where(fits, len(mult), position), starts)
        whole = np.add.reduceat(np.where(position < stop[group], mult, 0), starts)
        # ... and counts the share of it that the pool still holds
        k = np.minimum(stop, len(mult) - 1)
        cut = (stop < ends) & (left[k] > 0)
        k = k[cut]
        part = np.zeros(len(starts))
        part[cut] = mult[k] * (left[k] / nbytes[k])
        got[:, i] = whole + part

    return np.add.accumulate(got, axis=0)[-1].tolist()


def _belady_hits(reads: ReadIndex, capacity: int) -> int:
    """Classic demand-fetch Belady (MIN) hits on a pooled cache."""
    if capacity <= 0:
        return 0
    sids = reads.sid
    sizes = reads.nbytes.tolist()
    order = np.flatnonzero(reads.origin >= 1).tolist()
    # each read's next use of its segment, from one reverse pass
    inf = math.inf
    next_use = [inf] * len(sids)
    following: dict[int, int] = {}
    for pos in reversed(order):
        sid = sids[pos]
        next_use[pos] = following.get(sid, inf)
        following[sid] = pos

    cached: dict[int, int] = {}  # sid -> nbytes
    used = 0
    heap: list[tuple] = []  # (-next_use, sid) lazily validated
    nexts: dict[int, float] = {}
    hits = 0
    for pos in order:
        sid = sids[pos]
        nu = next_use[pos]
        if sid in cached:
            hits += 1
            nexts[sid] = nu
            heappush(heap, (-nu, sid))
            continue
        nbytes = sizes[pos]
        if nbytes > capacity:
            continue
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


def analyze_oracle(prov, reads: Optional[ReadIndex] = None) -> dict:
    """Per-prefix actual-vs-ceiling table plus the regret headline.

    ``reads`` is the log's read index when the caller already built one
    (:meth:`DiagnosisReport.derive` shares it with the drift check).
    """
    names = prov.tier_names
    caps = prov.tier_capacities
    if not names:
        return {"per_tier": [], "regret": 0.0, "reads": 0}
    index = reads if reads is not None else ReadIndex.of(prov)
    total = len(index)
    prefix_caps = []
    acc = 0
    for c in caps:
        acc += c
        prefix_caps.append(acc)

    # actual cumulative hits: hit AND served within the prefix
    served_hits = np.bincount(index.served[index.hit], minlength=len(names))
    actual = np.cumsum(served_hits[: len(names)]).tolist()
    eligible = int(np.count_nonzero(index.origin >= 1))

    ceiling = _ceiling_hits(index, prefix_caps)

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
    o_max = int(index.origin.max()) if total else 0
    belady_pool = prefix_caps[min(len(names), o_max) - 1] if o_max >= 1 else 0
    belady = _belady_hits(index, belady_pool)

    full = per_tier[-1] if per_tier else {"gap": 0.0}
    return {
        "reads": total,
        "eligible_reads": eligible,
        "per_tier": per_tier,
        "regret": full["gap"],
        "demand_belady_hit_ratio": belady / total if total else 0.0,
        "demand_belady_capacity_bytes": belady_pool,
    }
