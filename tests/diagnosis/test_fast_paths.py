"""The numpy drift tau and the oracle's fast paths against the plain
loops they replaced, copied here as references, compared with exact
``==`` on random inputs: tau over ties, infinities, constant inputs and
lengths 0-70; the ceiling and demand Belady over read sequences with
multi-read instants, tier-0 origins, zero-byte segments and capacity 0."""

import math
from heapq import heappop, heappush
from itertools import groupby

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.diagnosis.drift import kendall_tau  # noqa: E402
from repro.diagnosis.oracle import _belady_hits, _ceiling_hits  # noqa: E402

MB = 1 << 20


# ------------------------------------------------------------- references
def reference_kendall_tau(xs, ys):
    n = len(xs)
    if n != len(ys):
        raise ValueError("paired sequences must have equal length")
    if n < 2:
        return None
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n - 1):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            dx, dy = xs[j] - xi, ys[j] - yi
            # inf - inf is nan: equal infinities are ties
            if xi == xs[j]:
                dx = 0.0
            if yi == ys[j]:
                dy = 0.0
            if dx == 0.0 and dy == 0.0:
                ties_x += 1
                ties_y += 1
            elif dx == 0.0:
                ties_x += 1
            elif dy == 0.0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


def reference_ceiling_hits(reads, prefix_caps):
    n_tiers = len(prefix_caps)
    hits = [0.0] * n_tiers
    for _t, instant in groupby(reads, key=lambda r: r[0]):
        segs = {}
        for _rt, sid, _served, origin, nbytes, _hit in instant:
            if origin < 1:
                continue
            entry = segs.get(sid)
            if entry is None:
                segs[sid] = [1, nbytes, origin]
            else:
                entry[0] += 1
        if not segs:
            continue
        ordered = sorted(
            segs.values(), key=lambda e: (-(e[0] / e[1]) if e[1] else -math.inf)
        )
        o_max = max(e[2] for e in ordered)
        for i in range(n_tiers):
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


def reference_belady_hits(reads, capacity):
    if capacity <= 0:
        return 0
    positions = {}
    for pos, (_t, sid, _served, origin, _nb, _hit) in enumerate(reads):
        if origin >= 1:
            positions.setdefault(sid, []).append(pos)
    cursor = {sid: 0 for sid in positions}

    def next_use(sid, pos):
        lst = positions[sid]
        i = cursor[sid]
        while i < len(lst) and lst[i] <= pos:
            i += 1
        cursor[sid] = i
        return lst[i] if i < len(lst) else math.inf

    cached = {}
    used = 0
    heap = []
    nexts = {}
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
        bailed = False
        while used + nbytes > capacity:
            while heap and (heap[0][1] not in cached
                            or -heap[0][0] != nexts[heap[0][1]]):
                heappop(heap)
            if not heap:
                bailed = True
                break
            far, victim = heappop(heap)
            if -far <= nu:
                heappush(heap, (far, victim))
                bailed = True
                break
            used -= cached.pop(victim)
            nexts.pop(victim, None)
        if bailed:
            continue
        cached[sid] = nbytes
        used += nbytes
        nexts[sid] = nu
        heappush(heap, (-nu, sid))
    return hits


# ---------------------------------------------------------------- kendall
VALUES = st.one_of(
    st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf]),
    st.floats(allow_nan=False, width=64),
    st.integers(-3, 3),
)


@st.composite
def paired(draw):
    n = draw(st.integers(0, 70))
    xs = draw(st.lists(VALUES, min_size=n, max_size=n))
    ys = draw(st.lists(VALUES, min_size=n, max_size=n))
    return xs, ys


@settings(max_examples=300, deadline=None)
@given(paired())
def test_kendall_tau_matches_the_pair_loop(pair):
    xs, ys = pair
    assert kendall_tau(xs, ys) == reference_kendall_tau(xs, ys)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 70])
def test_kendall_tau_matches_on_constant_and_infinite_inputs(n):
    const = [1.5] * n
    ramp = [float(i) for i in range(n)]
    infs = [(-math.inf if i % 3 else math.inf) for i in range(n)]
    for xs, ys in [(const, ramp), (ramp, const), (infs, ramp), (ramp, infs),
                   (infs, infs), (ramp, ramp[::-1])]:
        assert kendall_tau(xs, ys) == reference_kendall_tau(xs, ys)


# ----------------------------------------------------------------- oracle
@st.composite
def read_sequences(draw):
    """(t, sid, served, origin, nbytes, hit) rows in time order, with
    runs of equal t (multi-read instants) and repeated sids in one
    instant; a segment keeps its size for the whole sequence."""
    n = draw(st.integers(0, 60))
    sizes = draw(st.lists(st.sampled_from([0, 1, MB // 2, MB, 2 * MB, 3 * MB]),
                          min_size=8, max_size=8))
    t = 0.0
    rows = []
    for _ in range(n):
        t += draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
        sid = draw(st.integers(0, 7))
        origin = draw(st.integers(0, 3))
        served = draw(st.integers(0, origin))
        rows.append((t, sid, served, origin, sizes[sid], served < origin))
    return rows


CAPS = st.lists(st.sampled_from([0, 1, MB // 2, MB, 2 * MB, 5 * MB]),
                min_size=1, max_size=3)


def cumulative(caps):
    out, acc = [], 0
    for c in caps:
        acc += c
        out.append(acc)
    return out


@settings(max_examples=400, deadline=None)
@given(read_sequences(), CAPS)
def test_ceiling_hits_match_the_groupby_loop(reads, caps):
    prefix_caps = cumulative(caps)
    assert _ceiling_hits(reads, prefix_caps) == reference_ceiling_hits(reads, prefix_caps)


@settings(max_examples=400, deadline=None)
@given(read_sequences(), st.sampled_from([0, 1, MB // 2, MB, 2 * MB, 3 * MB, 7 * MB]))
def test_belady_hits_match_the_cursor_walk(reads, capacity):
    assert _belady_hits(reads, capacity) == reference_belady_hits(reads, capacity)


def test_ceiling_fast_path_keeps_the_left_to_right_sum():
    # 0.1-sized fractions: a pairwise or compensated sum would round
    # differently from the reference's left-to-right +=
    reads = [(float(k), k, 1, 1, 10 * MB, False) for k in range(1000)]
    assert _ceiling_hits(reads, [MB]) == reference_ceiling_hits(reads, [MB])
    assert reference_ceiling_hits(reads, [MB]) != [math.fsum([0.1] * 1000)]


def test_oracle_and_drift_accept_a_log_with_no_reads():
    from repro.diagnosis.drift import analyze_drift
    from repro.diagnosis.oracle import analyze_oracle
    from repro.diagnosis.provenance import ProvenanceLog
    from repro.storage.devices import DRAM, NVME

    class _Tier:
        def __init__(self, name, profile, capacity):
            self.name, self.profile, self.capacity = name, profile, capacity

    class _Hierarchy:
        tiers = [_Tier("RAM", DRAM, MB), _Tier("NVMe", NVME, 2 * MB)]
        backing = _Tier("PFS", NVME, 0)

    prov = ProvenanceLog()
    prov.set_tiers(_Hierarchy())
    prov.snapshot([(1, 2.0), (2, 1.0)])
    oracle = analyze_oracle(prov)
    assert oracle["reads"] == 0 and oracle["eligible_reads"] == 0
    assert [row["ceiling_hit_ratio"] for row in oracle["per_tier"]] == [0.0, 0.0]
    assert oracle["demand_belady_capacity_bytes"] == 0
    # both segments are never read again: every imminence ties, tau is undefined
    assert analyze_drift(prov)["scored_snapshots"] == 0
