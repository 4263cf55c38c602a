#!/usr/bin/env python
"""Chaos replay: reproduce a faulty run exactly from its (seed, plan).

A chaos run that surfaces a bug is only useful if it can be replayed.
Every fault decision in ``repro.faults`` — outage timing, per-event
drop coins, per-move I/O error coins — derives from the plan's seed, so
``(FaultPlan, workload seed)`` is a complete reproducer.

This script

1. runs a workload under a hostile plan (mid-run tier outage with
   recovery, dropped events, sporadic prefetch I/O errors),
2. serialises the plan to JSON — what you would attach to a bug report,
3. reloads the plan from that JSON and replays the run,
4. verifies the two runs are *identical*: same fault log, same metrics.

Run:  python examples/chaos_replay.py
"""

from repro import (
    ClusterSpec,
    HFetchConfig,
    HFetchPrefetcher,
    SimulatedCluster,
    WorkflowRunner,
    format_run_results,
)
from repro.faults import FaultPlan
from repro.runtime.cluster import TierSpec
from repro.storage.devices import BURST_BUFFER, DRAM, NVME
from repro.workloads.synthetic import shared_sequential_workload

MB = 1 << 20


def run_once(plan: FaultPlan):
    workload = shared_sequential_workload(
        processes=16, steps=3, bytes_per_proc_step=2 * MB, compute_time=0.05
    )
    tiers = (
        TierSpec(DRAM, 32 * MB),
        TierSpec(NVME, 64 * MB),
        TierSpec(BURST_BUFFER, 128 * MB),
    )
    cluster = SimulatedCluster(
        ClusterSpec(tiers=tiers).scaled_for(workload.num_processes)
    )
    runner = WorkflowRunner(
        cluster,
        workload,
        HFetchPrefetcher(HFetchConfig(engine_interval=0.05)),
        fault_plan=plan,
    )
    result = runner.run()
    return runner, result


def main() -> None:
    # 1) the hostile plan: NVMe dies a tenth of a second in and comes
    #    back, 10% of file events vanish, 15% of prefetch moves error out
    plan = (
        FaultPlan(seed=1337)
        .tier_outage("NVMe", at=0.1, duration=0.2)
        .event_drop(0.10)
        .prefetch_io_error(0.15)
    )
    print(f"plan {plan.fingerprint()}: {len(plan)} faults, seed={plan.seed}")

    runner, result = run_once(plan)
    print(f"\nfirst run: {len(runner.injector.log)} injected faults")
    for line in runner.injector.log_lines()[:8]:
        print(f"  {line}")
    if len(runner.injector.log) > 8:
        print(f"  ... {len(runner.injector.log) - 8} more")

    # 2) what you would paste into the bug report
    report = plan.to_json()
    print(f"\nattach to the bug report ({len(report)} bytes of JSON):")
    print(f"  {report}")

    # 3) replay from the serialised plan
    replayed_plan = FaultPlan.from_json(report)
    assert replayed_plan == plan
    replay_runner, replay_result = run_once(replayed_plan)

    # 4) byte-identical: the fault log and every metric line up
    assert replay_runner.injector.log == runner.injector.log
    assert replay_result.row() == result.row()
    assert replay_result.faults == result.faults
    print("\nreplay matched the original run exactly:")
    print(format_run_results([result, replay_result], title="original vs replay"))
    print(
        f"\nfaults injected: {result.faults}"
        f"\ndemand-fetch fallbacks: "
        f"{runner.prefetcher.server.metrics()['io.moves_failed']}"
    )


if __name__ == "__main__":
    main()
