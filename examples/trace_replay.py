#!/usr/bin/env python
"""Replaying an I/O trace and watching the hierarchy fill.

Shows the two workflow-integration features:

1. **Trace import** — a flat Darshan-style trace (rows of
   ``pid, app, timestamp, file, offset, size``) becomes a replayable
   workload via ``workload_from_trace_rows``; the same spec round-trips
   through JSON for archiving.
2. **Occupancy timeline** — a telemetry handle samples each tier's
   ``tier.<name>.used`` gauge during the run, and the strips below render
   how the prefetch hierarchy fills and drains over time: the DMSH
   acting as "one big prefetching cache".

Run:  python examples/trace_replay.py
"""

from repro import HFetchConfig, HFetchPrefetcher, Telemetry, WorkflowRunner
from repro.runtime.cluster import ClusterSpec, SimulatedCluster, TierSpec
from repro.storage.devices import BURST_BUFFER, DRAM, NVME
from repro.workloads.io_traces import (
    workload_from_json,
    workload_from_trace_rows,
    workload_to_json,
)

MB = 1 << 20
SHADES = " .:-=+*#%@"


def synthesize_trace() -> list:
    """A small trace: 8 ranks, 3 bursts, gaps between bursts."""
    rows = []
    for pid in range(8):
        t = pid * 0.01  # start skew
        for burst in range(3):
            for req in range(6):
                offset = (pid * 24 + burst * 6 + req) * MB
                rows.append((pid, "replay", t, "/traces/app-data", offset, MB))
                t += 0.004
            t += 0.4  # compute gap => new timestep
    return rows


def main() -> None:
    workload = workload_from_trace_rows(synthesize_trace(), name="darshan-replay")
    print(
        f"trace → workload: {workload.num_processes} ranks, "
        f"{sum(len(p.steps) for p in workload.processes)} timesteps, "
        f"{workload.total_bytes / MB:.0f} MB of reads"
    )

    # archive + restore round trip
    restored = workload_from_json(workload_to_json(workload))
    assert restored.total_bytes == workload.total_bytes
    print("JSON round-trip: OK\n")

    cluster = SimulatedCluster(
        ClusterSpec(
            tiers=(
                TierSpec(DRAM, 24 * MB),
                TierSpec(NVME, 64 * MB),
                TierSpec(BURST_BUFFER, 128 * MB),
            )
        ).scaled_for(restored.num_processes)
    )
    tel = Telemetry(sample_interval=0.02)
    prefetcher = HFetchPrefetcher(
        HFetchConfig(engine_interval=0.05, engine_update_threshold=16)
    )
    result = WorkflowRunner(cluster, restored, prefetcher, telemetry=tel).run()

    print(f"replay under HFetch: {result.end_to_end_time:.2f}s, "
          f"{result.hit_ratio:.0%} hits\n")
    print("tier occupancy over time (darker = fuller):")
    width = 64
    stats = []
    for tier in cluster.hierarchy.tiers:
        used = [v for _, v in tel.registry.gauge_series(f"tier.{tier.name}.used")]
        picked = used[:: max(1, len(used) // width)][:width]
        strip = "".join(SHADES[min(9, int(9 * v / tier.capacity))] for v in picked)
        print(f"{tier.name:>12} |{strip}|")
        stats.append((tier.name, sum(used) / len(used) / tier.capacity, max(used)))
    for name, utilisation, peak in stats:
        print(f"  {name:>12}: mean utilisation {utilisation:.0%}, "
              f"peak {peak / MB:.0f} MB")


if __name__ == "__main__":
    main()
