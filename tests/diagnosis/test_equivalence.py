"""The zero-perturbation contract: a run with diagnosis enabled produces
the identical RunResult as an uninstrumented run (the provenance log
never advances the clock or touches seeded RNG)."""

from repro.telemetry.handle import Telemetry

from .conftest import (
    hfetch_config,
    result_signature,
    run_diagnosed,
    small_cluster,
    small_workload,
)
from repro.core.prefetcher import HFetchPrefetcher
from repro.runtime.runner import WorkflowRunner

MB = 1 << 20


def run_plain(telemetry=None, seed=2020):
    runner = WorkflowRunner(
        small_cluster(ranks=16, bb_capacity=256 * MB),
        small_workload(),
        HFetchPrefetcher(hfetch_config()),
        seed=seed,
        telemetry=telemetry,
    )
    return runner, runner.run()


def test_diagnosis_run_is_result_identical_to_bare_run():
    _r1, bare = run_plain()
    _r2, diagnosed, _report = run_diagnosed()
    assert result_signature(bare) == result_signature(diagnosed)


def test_diagnosis_run_is_result_identical_to_telemetry_only_run():
    _r1, tel_only = run_plain(telemetry=Telemetry(label="plain"))
    _r2, diagnosed, _report = run_diagnosed()
    assert result_signature(tel_only) == result_signature(diagnosed)


def test_disabled_diagnosis_has_no_provenance_and_no_extra_block():
    tel = Telemetry(label="off")
    assert tel.diagnosis_report() is None
    _runner, result = run_plain(telemetry=tel)
    assert "diagnosis" not in result.extra


def test_enabled_diagnosis_populates_extra_block():
    _runner, result, report = run_diagnosed()
    block = result.extra["diagnosis"]
    assert block["moves"] > 0
    assert block == report.headline()
