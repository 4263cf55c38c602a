"""Report pin: the sha256 of ``DiagnosisReport.to_json()`` for small
diagnosed runs.

Recorded before the drift and oracle derivation were rewritten around
numpy pair counting and a shared read index; the rewrite must leave
every block of the report byte-identical.  The 128-rank Montage run is
the case where many reads share an instant (517 of its 1531 read
instants carry two reads), so the ceiling's multi-read path is pinned
next to its single-read fast path.
"""

import hashlib

import pytest

from repro.workloads.montage import montage_workload

from .conftest import MB, montage_small, run_diagnosed, wrf_small

REPORT_SHA256 = {
    "montage-8": "e2b01bd5c30850ce568c7a23a151ed02484973f97372f504812d51f4583c9e99",
    "wrf-8": "21822bb6a627d5fc80c816195e7c5d3a39ee622695f901bdcfeeb66037620b1d",
    "montage-128": "e87e4b52844eac09e722a6321ed061b50b75035eb650a08b3f07bd2277c2f6db",
}


def montage_shared_instants():
    return montage_workload(processes=128, bytes_per_step=1 * MB, compute_time=0.0)


CASES = {
    "montage-8": montage_small,
    "wrf-8": wrf_small,
    "montage-128": montage_shared_instants,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_diagnosis_report_is_pinned(name):
    _runner, _result, report = run_diagnosed(workload=CASES[name]())
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == REPORT_SHA256[name]
