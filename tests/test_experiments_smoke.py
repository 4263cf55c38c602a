"""Smoke tests for the experiment harnesses (tiny parameters).

The benchmarks run each figure at reporting scale; these tests only
check that every harness runs end-to-end, returns well-formed rows and
satisfies the most basic sanity constraints — fast enough for the unit
suite.
"""

import pytest

from repro.experiments.ablations import (
    ablate_decay_base,
    ablate_dhm,
    ablate_reactiveness_trigger,
    ablate_scoring_model,
)
from repro.experiments.fig3a import consumption_rate, run_fig3a
from repro.experiments.fig3b import run_fig3b
from repro.experiments.fig4a import run_fig4a
from repro.experiments.fig4b import run_fig4b
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6a import run_fig6a
from repro.experiments.fig6b import run_fig6b


def test_fig3a_consumption_saturates_with_daemons():
    slow = consumption_rate(2, 6, cores=16, events_per_client=200)
    fast = consumption_rate(6, 2, cores=16, events_per_client=200)
    assert fast > slow


def test_fig3a_rows_shape():
    rows = run_fig3a(core_counts=(4, 8), events_per_client=100)
    assert len(rows) == 6  # 3 splits x 2 core counts
    assert {r["config"] for r in rows} == {"2::6", "4::4", "6::2"}
    assert all(r["events_per_sec"] > 0 for r in rows)


def test_fig3b_rows_shape():
    rows = run_fig3b(processes=8, bursts=2, burst_bytes_total=16 << 20)
    assert len(rows) == 9  # 3 sensitivities x 3 workloads
    assert all(0 <= r["hit_ratio_%"] <= 100 for r in rows)


def test_fig4a_rows_shape():
    rows = run_fig4a(rank_divisor=64, repeats=1)
    assert [r["solution"] for r in rows] == ["Parallel", "HFetch", "Serial", "None"]
    none_row = rows[-1]
    assert none_row["hit_ratio_%"] == 0.0
    assert all(r["time_s"] > 0 for r in rows)


def test_fig4b_rows_shape():
    rows = run_fig4b(rank_divisor=64, repeats=1)
    assert len(rows) == 16  # 4 scales x 4 solutions
    assert {r["paper_ranks"] for r in rows} == {320, 640, 1280, 2560}


def test_fig5_rows_shape():
    rows = run_fig5(rank_divisor=64, repeats=1)
    assert [r["pattern"] for r in rows] == [
        "sequential", "strided", "repetitive", "irregular",
    ]
    assert all(r["datacentric_evictions"] == 0 for r in rows)


def test_fig6a_rows_shape():
    rows = run_fig6a(rank_divisor=64, repeats=1)
    assert len(rows) == 16
    for row in rows:
        if row["solution"] == "KnowAc":
            assert row["profile_cost_s"] > 0
            assert row["total_time_s"] > row["time_s"]
        else:
            assert row["profile_cost_s"] == 0


def test_fig6b_rows_shape():
    rows = run_fig6b(rank_divisor=64, repeats=1)
    assert len(rows) == 16
    assert all(r["time_s"] > 0 for r in rows)


def test_ablate_dhm_broadcast_always_slower():
    rows = ablate_dhm(update_counts=(1000,))
    assert rows[0]["broadcast_seconds"] > rows[0]["dhm_seconds"]


def test_ablate_trigger_runs():
    rows = ablate_reactiveness_trigger()
    assert len(rows) == 3
    assert all(r["engine_passes"] >= 0 for r in rows)


def test_ablate_decay_base_reads_moves():
    (row,) = ablate_decay_base(values=(2.0,))
    assert row["decay_base_p"] == 2.0
    assert row["moves"] > 0


def test_ablate_scoring_model_reads_moves():
    (row,) = ablate_scoring_model(models=("eq1",))
    assert row["scoring_model"] == "eq1"
    assert row["moves"] > 0
