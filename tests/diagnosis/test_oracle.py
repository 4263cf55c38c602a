"""Oracle counterfactual: the acceptance invariant — the clairvoyant
ceiling is >= the actual hit ratio on *every* cumulative tier prefix,
on both paper workloads — plus unit checks of the two bounds."""

from repro.diagnosis.oracle import _belady_hits, _ceiling_hits
from repro.diagnosis.provenance import ReadIndex

from .conftest import MB, montage_small, run_diagnosed, wrf_small


def assert_oracle_dominates(report, result):
    o = report.oracle
    assert o["per_tier"], "oracle table must cover every tier prefix"
    for row in o["per_tier"]:
        assert row["ceiling_hit_ratio"] >= row["actual_hit_ratio"] - 1e-12, row
        assert row["gap"] >= -1e-12
        assert 0.0 <= row["ceiling_hit_ratio"] <= 1.0
    # the full-hierarchy prefix's actual ratio is the run's hit ratio
    full = o["per_tier"][-1]
    assert abs(full["actual_hit_ratio"] - result.hit_ratio) < 1e-12
    assert o["regret"] == full["gap"]
    assert o["regret"] >= -1e-12
    # prefix capacities are cumulative, so ceilings are monotone
    ceilings = [row["ceiling_hit_ratio"] for row in o["per_tier"]]
    assert ceilings == sorted(ceilings)


def test_ceiling_dominates_actual_on_montage():
    _runner, result, report = run_diagnosed(workload=montage_small())
    assert result.hits > 0
    assert_oracle_dominates(report, result)


def test_ceiling_dominates_actual_on_wrf():
    _runner, result, report = run_diagnosed(workload=wrf_small())
    assert_oracle_dominates(report, result)


def test_ceiling_dominates_actual_on_synthetic():
    _runner, result, report = run_diagnosed()
    assert_oracle_dominates(report, result)


# ------------------------------------------------------------- unit bounds
def test_ceiling_limits_concurrent_reads_to_capacity():
    # two ranks read two different 1MB segments at the same instant from
    # a tier-2 origin; prefix 0 has room for only one of them
    reads = [
        (1.0, 0, 2, 2, MB, False),
        (1.0, 1, 2, 2, MB, False),
    ]
    hits = _ceiling_hits(ReadIndex.from_rows(reads), prefix_caps=[MB, 4 * MB])
    assert hits[0] == 1.0  # one segment fits the 1MB prefix
    assert hits[1] == 2.0  # both fit the 4MB prefix


def test_ceiling_pool_stops_below_the_origin():
    # origin at index 1: a hit can only come from tier 0, so a wider
    # prefix gains nothing — the usable pool is capped at prefix 0
    reads = [
        (1.0, 0, 1, 1, MB, False),
        (1.0, 1, 1, 1, MB, False),
    ]
    hits = _ceiling_hits(ReadIndex.from_rows(reads), prefix_caps=[MB, 4 * MB])
    assert hits == [1.0, 1.0]


def test_ceiling_prefers_shared_segments():
    # one segment read by 3 ranks vs one read by 1 rank, room for one
    reads = [
        (1.0, 0, 1, 1, MB, False),
        (1.0, 0, 1, 1, MB, False),
        (1.0, 0, 1, 1, MB, False),
        (1.0, 1, 1, 1, MB, False),
    ]
    hits = _ceiling_hits(ReadIndex.from_rows(reads), prefix_caps=[MB])
    assert hits[0] == 3.0  # the shared segment wins the knapsack


def test_ceiling_ignores_tier0_origin_reads():
    # a segment whose origin is already the fastest tier can never hit
    reads = [(1.0, 0, 0, 0, MB, False)]
    assert _ceiling_hits(ReadIndex.from_rows(reads), prefix_caps=[MB]) == [0.0]


def test_ceiling_is_fractional_for_oversized_segments():
    reads = [(1.0, 0, 1, 1, 2 * MB, False)]
    hits = _ceiling_hits(ReadIndex.from_rows(reads), prefix_caps=[MB])
    assert hits == [0.5]


def test_belady_counts_reuse_within_capacity():
    # sid 0 read twice, sid 1 once; cache of 1MB: first access of each
    # is a compulsory miss, the re-read of sid 0 hits
    reads = [
        (1.0, 0, 1, 1, MB, False),
        (2.0, 1, 1, 1, MB, False),
        (3.0, 0, 1, 1, MB, False),
    ]
    assert _belady_hits(ReadIndex.from_rows(reads), capacity=2 * MB) == 1
    assert _belady_hits(ReadIndex.from_rows(reads), capacity=0) == 0


def test_belady_evicts_farthest_next_use():
    # capacity 1MB: MIN keeps the segment whose next use is sooner
    reads = [
        (1.0, 0, 1, 1, MB, False),
        (2.0, 1, 1, 1, MB, False),
        (3.0, 0, 1, 1, MB, False),  # sid 0 needed sooner than sid 1
        (4.0, 1, 1, 1, MB, False),
    ]
    # sid 1's insert at t=2 is bypassed (sid 0 needed sooner), so sid 0
    # hits at t=3; sid 1 misses both times
    assert _belady_hits(ReadIndex.from_rows(reads), capacity=MB) == 1


def test_oracle_reports_belady_context():
    _runner, _result, report = run_diagnosed()
    o = report.oracle
    assert 0.0 <= o["demand_belady_hit_ratio"] <= 1.0
    assert o["demand_belady_capacity_bytes"] > 0
    assert o["eligible_reads"] <= o["reads"]
