"""Drift tracker: Kendall tau-b unit behaviour, snapshot decimation
bounds, and the full-run drift block."""

import math

import pytest

from repro.diagnosis.drift import analyze_drift, kendall_tau
from repro.diagnosis.provenance import ProvenanceLog

from .conftest import run_diagnosed


# ------------------------------------------------------------- kendall tau
def test_tau_perfect_agreement():
    assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_tau_perfect_reversal():
    assert kendall_tau([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_tau_constant_sequence_is_undefined():
    assert kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]) is None
    assert kendall_tau([1, 2, 3], [5.0, 5.0, 5.0]) is None


def test_tau_short_sequences_are_undefined():
    assert kendall_tau([], []) is None
    assert kendall_tau([1.0], [2.0]) is None


def test_tau_mismatched_lengths_raise():
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1])


def test_tau_handles_ties_and_infinities():
    # equal -inf entries are ties, not nan: tau stays defined and finite
    tau = kendall_tau([3.0, 2.0, 1.0], [-1.0, -math.inf, -math.inf])
    assert tau is not None
    assert -1.0 <= tau <= 1.0
    assert tau > 0  # the hot score predicted the only finite imminence


def test_tau_partial_disagreement_between_bounds():
    tau = kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
    assert -1.0 < tau < 1.0


# --------------------------------------------------------------- snapshots
def test_snapshot_decimation_stays_bounded():
    prov = ProvenanceLog()
    width = ProvenanceLog.SNAPSHOT_WIDTH
    plan = [(f"k{j}", float(j)) for j in range(width + 10)]
    for i in range(4 * ProvenanceLog.MAX_SNAPSHOTS):
        prov.snapshot(plan)
    assert len(prov.snapshots) <= ProvenanceLog.MAX_SNAPSHOTS
    assert prov._snapshot_stride > 1
    # width cap holds on every retained snapshot
    assert all(len(entries) == width for _t, entries in prov.snapshots)


def test_snapshot_keeps_hot_head():
    prov = ProvenanceLog()
    width = ProvenanceLog.SNAPSHOT_WIDTH
    # hotter first: the plan's head is the highest scores
    prov.snapshot([(f"k{j}", float(width - j)) for j in range(width + 1)])
    (_t, entries), = prov.snapshots
    assert [s for _sid, s in entries] == [float(width - j) for j in range(width)]


# ----------------------------------------------------------------- analyze
def test_analyze_drift_empty_log():
    out = analyze_drift(ProvenanceLog())
    assert out["snapshots"] == 0
    assert out["scored_snapshots"] == 0
    assert out["series"] == []
    assert "tau_mean" not in out


def test_analyze_drift_single_entry_snapshot_is_skipped():
    prov = ProvenanceLog()
    prov.snapshot([("k", 1.0)])
    out = analyze_drift(prov)
    assert out["snapshots"] == 1
    assert out["scored_snapshots"] == 0


class _Clock:
    def __init__(self):
        self.now = 0.0


def test_analyze_drift_scores_against_next_access():
    prov = ProvenanceLog()
    clock = _Clock()
    prov.bind_env(clock)
    # snapshot at t=0 ranks a hotter than b; a is then read sooner
    prov.snapshot([("a", 9.0), ("b", 1.0)])
    clock.now = 1.0
    prov.read("a", "RAM", "PFS", True, 1, 0, 0.0, 1)
    clock.now = 2.0
    prov.read("b", "RAM", "PFS", True, 1, 0, 0.0, 1)
    out = analyze_drift(prov)
    assert out["scored_snapshots"] == 1
    assert out["tau_mean"] == pytest.approx(1.0)


def test_full_run_drift_block():
    _runner, _result, report = run_diagnosed()
    d = report.drift
    assert d["scored_snapshots"] <= d["snapshots"]
    if "tau_mean" in d:
        assert -1.0 <= d["tau_mean"] <= 1.0
        assert all(-1.0 <= tau <= 1.0 for _t, tau, _n in d["series"])
