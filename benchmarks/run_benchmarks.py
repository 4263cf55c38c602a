#!/usr/bin/env python
"""Run the simulator performance suite and track perf-regression baselines.

Executes ``benchmarks/test_simulator_performance.py`` under
pytest-benchmark, writes the raw statistics to ``BENCH_<label>.json`` in
the repository root, and prints a per-test median comparison against

* every other ``BENCH_*.json`` found in the repository root (earlier
  PRs' baselines), and
* the ``baseline_before`` block embedded in the target file, if present
  (the medians measured on the pre-optimisation code, preserved across
  re-runs so the speedup this PR bought stays visible).

With ``--telemetry-overhead`` the runner also measures the wall-clock
cost of full instrumentation (alternating telemetry-off / telemetry-on
repeats of a medium HFetch run) and embeds the result as a
``telemetry_overhead`` block in the target JSON; the subsystem's budget
is <5% median overhead.

Usage::

    python benchmarks/run_benchmarks.py               # writes BENCH_PR1.json
    python benchmarks/run_benchmarks.py --label PR2   # writes BENCH_PR2.json
    python benchmarks/run_benchmarks.py -k kernel     # subset of the suite
    python benchmarks/run_benchmarks.py --label PR3 --telemetry-overhead
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = "benchmarks/test_simulator_performance.py"

#: the telemetry subsystem's wall-clock budget: <5% median overhead
TELEMETRY_OVERHEAD_BUDGET = 0.05


def measure_telemetry_overhead(repeats: int = 11) -> dict:
    """Wall-clock delta of full instrumentation on a medium HFetch run.

    Runs telemetry-off and telemetry-on back to back ``repeats`` times
    and reports the *median of the paired deltas*: each on-run is
    compared against the off-run immediately before it, so slow drift
    of the machine cancels within a pair, and the median discards the
    pairs a scheduler hiccup landed in — the statistic a noisy shared
    box needs for a sub-5%-of-60ms signal.  The instrumented arm uses
    the full treatment: span tracer, every layer metric, and periodic
    gauge sampling.

    Each timed run starts from a freshly collected GC state (as pyperf
    does): a full gen2 collection scans the whole process heap, so
    whichever arm happens to cross the gen2 threshold mid-run would
    otherwise absorb a pause whose cost is set by the surrounding
    process, not by the code under test.  Collections *triggered by*
    telemetry's own allocations during the run still count against it.
    """
    import gc

    sys.path.insert(0, str(ROOT / "src"))
    from repro import (
        ClusterSpec,
        HFetchConfig,
        HFetchPrefetcher,
        SimulatedCluster,
        Telemetry,
        WorkflowRunner,
    )
    from repro.runtime.cluster import TierSpec
    from repro.storage.devices import BURST_BUFFER, DRAM, NVME
    from repro.workloads.synthetic import partitioned_sequential_workload

    mb = 1 << 20

    def one_run(telemetry):
        workload = partitioned_sequential_workload(
            processes=32, steps=6, bytes_per_proc_step=2 * mb, compute_time=0.05
        )
        cluster = SimulatedCluster(
            ClusterSpec(
                tiers=(
                    TierSpec(DRAM, 64 * mb),
                    TierSpec(NVME, 128 * mb),
                    TierSpec(BURST_BUFFER, 256 * mb),
                )
            ).scaled_for(workload.num_processes)
        )
        runner = WorkflowRunner(
            cluster,
            workload,
            HFetchPrefetcher(HFetchConfig(engine_interval=0.05)),
            telemetry=telemetry,
        )
        gc.collect()
        start = time.perf_counter()
        runner.run()
        return time.perf_counter() - start

    one_run(None)  # warm-up discarded
    one_run(Telemetry(label="warmup", sample_interval=0.1))
    off: list[float] = []
    on: list[float] = []
    for _ in range(repeats):
        off.append(one_run(None))
        on.append(one_run(Telemetry(label="overhead", sample_interval=0.1)))

    off_median = statistics.median(off)
    delta = statistics.median(o - f for o, f in zip(on, off))
    overhead = delta / off_median
    return {
        "repeats": repeats,
        "off_median_s": off_median,
        "on_median_s": statistics.median(on),
        "paired_delta_median_s": delta,
        "off_runs_s": off,
        "on_runs_s": on,
        "overhead_fraction": overhead,
        "budget_fraction": TELEMETRY_OVERHEAD_BUDGET,
        "within_budget": overhead < TELEMETRY_OVERHEAD_BUDGET,
    }


def run_overhead_measurement(target: Path) -> int:
    """Measure telemetry overhead, embed it in ``target``, report."""
    print("\n=== telemetry overhead (on vs off, alternating repeats) ===")
    block = measure_telemetry_overhead()
    data = {}
    if target.exists():
        try:
            data = json.loads(target.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    data["telemetry_overhead"] = block
    target.write_text(json.dumps(data, indent=2))
    print(
        f"  off median: {block['off_median_s'] * 1e3:.1f} ms  "
        f"on median: {block['on_median_s'] * 1e3:.1f} ms  "
        f"paired delta: {block['paired_delta_median_s'] * 1e3:+.2f} ms  "
        f"overhead: {block['overhead_fraction']:+.2%} "
        f"(budget <{block['budget_fraction']:.0%})"
    )
    print(f"  -> {target.name}")
    if not block["within_budget"]:
        print(
            f"telemetry overhead {block['overhead_fraction']:.2%} exceeds the "
            f"{block['budget_fraction']:.0%} budget",
            file=sys.stderr,
        )
        return 1
    return 0


def load_medians(path: Path) -> dict[str, float]:
    """``{test name: median seconds}`` from a pytest-benchmark JSON file."""
    data = json.loads(path.read_text())
    return {b["name"]: b["stats"]["median"] for b in data.get("benchmarks", [])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="PR1", help="suffix of BENCH_<label>.json")
    parser.add_argument("-k", default=None, help="pytest -k expression (subset)")
    parser.add_argument(
        "--telemetry-overhead",
        action="store_true",
        help="measure telemetry-on vs telemetry-off wall-clock delta and "
        "embed it in BENCH_<label>.json (budget: <5%%)",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    target = ROOT / f"BENCH_{args.label}.json"

    # preserve any embedded before-measurements across re-runs
    baseline_before = None
    if target.exists():
        try:
            baseline_before = json.loads(target.read_text()).get("baseline_before")
        except (json.JSONDecodeError, OSError):
            pass

    cmd = [
        sys.executable, "-m", "pytest", SUITE,
        f"--benchmark-json={target}", "-q",
    ]
    if args.k:
        cmd += ["-k", args.k]
    rc = subprocess.call(cmd, cwd=ROOT, env=env)
    if rc != 0 or not target.exists():
        print(f"benchmark run failed (exit {rc})", file=sys.stderr)
        return rc or 1

    if baseline_before is not None:
        data = json.loads(target.read_text())
        data["baseline_before"] = baseline_before
        target.write_text(json.dumps(data, indent=2))

    if args.telemetry_overhead:
        rc = run_overhead_measurement(target)
        if rc != 0:
            return rc

    current = load_medians(target)
    references: dict[str, dict[str, float]] = {}
    if baseline_before:
        references["before (pre-optimisation)"] = baseline_before
    for other in sorted(ROOT.glob("BENCH_*.json")):
        if other != target:
            references[other.name] = load_medians(other)

    print(f"\n=== {target.name}: medians ===")
    for name, median in sorted(current.items()):
        print(f"  {name}: {median * 1e3:.3f} ms")
    for ref_name, medians in references.items():
        print(f"\n=== vs {ref_name} ===")
        for name, median in sorted(current.items()):
            ref = medians.get(name)
            if ref is None or median <= 0:
                continue
            print(
                f"  {name}: {ref * 1e3:.3f} ms -> {median * 1e3:.3f} ms"
                f"  ({ref / median:.2f}x)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
