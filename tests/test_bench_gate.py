"""The benchmark gate's comparison, on hand-built records (perfbench is not run)."""

import json
import shutil
from pathlib import Path

from benchmarks.compare_bench import SPEC, compare, host_bound, load_spec, newest_baseline

ROOT = Path(__file__).resolve().parent.parent


def record(sha="abc", attempted=100, failed=0, correct=True, us=10.0):
    """One workload as ``--check`` sees it: fingerprint run + trace-0 result line."""
    return {
        "fingerprint": {"sha256": sha, "attempted": attempted, "failed": 0},
        "trace0": {
            "correct": correct,
            "attempted": 3 * attempted,
            "failed": failed,
            "metrics": {"host_us_per_read": {"value": us, "unit": "us"}},
        },
    }


BASE = {"montage": record()}


def checks(current, bound=0.25):
    return [(name, check) for name, check, _msg in compare(BASE, current, bound)]


def test_identical_run_passes():
    assert checks({"montage": record()}) == []


def test_fingerprint_mismatch_fails():
    assert checks({"montage": record(sha="abd")}) == [("montage", "fingerprint")]


def test_changed_attempted_count_fails():
    assert checks({"montage": record(attempted=99)}) == [("montage", "operations")]


def test_failed_operation_fails():
    assert checks({"montage": record(failed=1)}) == [("montage", "operations")]
    assert checks({"montage": record(correct=False)}) == [("montage", "operations")]


def test_host_us_per_read_passes_at_1_24x_and_fails_at_1_26x():
    assert checks({"montage": record(us=12.4)}) == []
    assert checks({"montage": record(us=12.6)}) == [("montage", "host_us_per_read")]


def test_workload_without_a_baseline_fails():
    assert checks({"wrf": record()}) == [("wrf", "fingerprint")]


def test_bound_is_read_from_benchmark_json(tmp_path):
    declared = json.loads(SPEC.read_text())
    (entry,) = [m for m in declared["end_to_end"] if m["name"] == "host_us_per_read"]
    assert host_bound(load_spec()) == entry["bound"] == 0.25
    entry["bound"] = 0.5
    loose = tmp_path / "BENCHMARK.json"
    loose.write_text(json.dumps(declared))
    assert checks({"montage": record(us=14.9)}, host_bound(load_spec(loose))) == []


def write_block(path, when, sha):
    path.write_text(json.dumps({"perfbench": {"recorded_utc": when, "workloads": {"w": sha}}}))


def test_newest_perfbench_block_is_chosen(tmp_path):
    write_block(tmp_path / "BENCH_PR20.json", "2026-01-02T00:00:00Z", "old")
    write_block(tmp_path / "BENCH_PR3.json", "2026-03-01T00:00:00Z", "new")
    write_block(tmp_path / "BENCH_PR100.json", "2025-12-31T23:59:59Z", "older")
    name, block = newest_baseline(tmp_path)
    assert name == "BENCH_PR3.json"
    assert block["workloads"] == {"w": "new"}


def test_old_regression_gate_block_is_ignored(tmp_path):
    shutil.copy(ROOT / "BENCH_PR4.json", tmp_path)
    assert "regression_gate" in json.loads((tmp_path / "BENCH_PR4.json").read_text())
    assert newest_baseline(tmp_path) is None
    write_block(tmp_path / "BENCH_PR12.json", "2026-01-01T00:00:00Z", "x")
    assert newest_baseline(tmp_path)[0] == "BENCH_PR12.json"
