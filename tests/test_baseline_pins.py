"""RunResult pins for the seven comparators and the no-prefetch baseline.

Every ``RunResult`` field except the free-form ``extra`` is pinned for one
small seeded run of each baseline on a fixed three-tier machine:

* None, Serial, Parallel, In-Memory Optimal and In-Memory Naive read an
  8-rank partitioned-sequential dataset through a 64 MB RAM budget (so
  In-Memory Optimal's per-rank partitions hold 8 segments and prefetch);
* Application-centric reads a four-application sequential dataset
  through 8 MB RAM and 8 MB NVMe shares;
* Stacker and KnowAc read an 8-rank Montage through an 8 MB staging cache.

Every run except None prefetches and evicts, so each baseline's fetch
start, fetch body, cache-hit plan and eviction count are all pinned.  A
refactor of the baselines must reproduce these values exactly.
"""

from dataclasses import asdict, replace

import pytest

from repro.prefetchers import (
    AppCentricPrefetcher,
    InMemoryNaivePrefetcher,
    InMemoryOptimalPrefetcher,
    KnowAcPrefetcher,
    NoPrefetcher,
    ParallelPrefetcher,
    SerialPrefetcher,
    StackerPrefetcher,
)
from repro.runtime.cluster import ClusterSpec, SimulatedCluster, TierSpec
from repro.runtime.runner import WorkflowRunner
from repro.storage.devices import BURST_BUFFER, DRAM, NVME
from repro.workloads.montage import montage_workload
from repro.workloads.patterns import AccessPattern
from repro.workloads.synthetic import (
    multi_app_pattern_workload,
    partitioned_sequential_workload,
)

SEED = 2020
MB = 1 << 20


def sequential():
    return partitioned_sequential_workload(
        processes=8, steps=4, bytes_per_proc_step=4 * MB, compute_time=0.05
    )


def multi_app():
    return multi_app_pattern_workload(
        AccessPattern.SEQUENTIAL,
        processes=16,
        apps=4,
        steps=4,
        bytes_per_proc_step=2 * MB,
        dataset_bytes=8 * MB,
        compute_time=0.05,
        seed=SEED,
    )


def montage():
    return montage_workload(processes=8, bytes_per_step=4 * MB, compute_time=0.05)


#: name -> (workload factory, prefetcher factory)
RUNS = {
    "None": (sequential, lambda: NoPrefetcher()),
    "Serial": (sequential, lambda: SerialPrefetcher(ram_budget=64 * MB)),
    "Parallel": (sequential, lambda: ParallelPrefetcher(ram_budget=64 * MB)),
    "In-Memory Optimal": (sequential, lambda: InMemoryOptimalPrefetcher(ram_budget=64 * MB)),
    "In-Memory Naive": (sequential, lambda: InMemoryNaivePrefetcher(ram_budget=64 * MB)),
    "Application-centric": (
        multi_app,
        lambda: AppCentricPrefetcher(ram_budget=8 * MB, nvme_budget=8 * MB),
    ),
    "Stacker": (montage, lambda: StackerPrefetcher(ram_budget=8 * MB)),
    "KnowAc": (montage, lambda: KnowAcPrefetcher(ram_budget=8 * MB)),
}


def run(name: str) -> dict:
    make_workload, make_prefetcher = RUNS[name]
    workload = make_workload()
    cluster = SimulatedCluster(
        ClusterSpec(
            tiers=(
                TierSpec(DRAM, 16 * MB),
                TierSpec(NVME, 32 * MB),
                TierSpec(BURST_BUFFER, 256 * MB),
            )
        ).scaled_for(workload.num_processes)
    )
    result = WorkflowRunner(cluster, workload, make_prefetcher(), seed=SEED).run()
    out = asdict(replace(result, extra={}))
    del out["extra"]
    return out


#: recorded before the baselines' cache protocol was deduplicated
PINNED = {
    "None": {
        "solution": "None",
        "workload": "partitioned-sequential",
        "end_to_end_time": 0.37400000000000005,
        "read_time": 1.280000000000001,
        "hit_ratio": 0.0,
        "hits": 0,
        "misses": 128,
        "bytes_read": 134217728,
        "bytes_prefetched": 0,
        "tier_hits": {},
        "tier_misses": {"PFS": 128},
        "ram_peak_bytes": 0.0,
        "evictions": 0,
        "faults": {},
    },
    "Serial": {
        "solution": "Serial",
        "workload": "partitioned-sequential",
        "end_to_end_time": 0.35419551250000003,
        "read_time": 0.9136169812499997,
        "hit_ratio": 0.2890625,
        "hits": 37,
        "misses": 91,
        "bytes_read": 134217728,
        "bytes_prefetched": 92274688,
        "tier_hits": {"RAM": 37},
        "tier_misses": {"PFS": 91},
        "ram_peak_bytes": 67108864.0,
        "evictions": 32,
        "faults": {},
    },
    "Parallel": {
        "solution": "Parallel",
        "workload": "partitioned-sequential",
        "end_to_end_time": 0.3145865375,
        "read_time": 0.7056698624999989,
        "hit_ratio": 0.453125,
        "hits": 58,
        "misses": 70,
        "bytes_read": 134217728,
        "bytes_prefetched": 234881024,
        "tier_hits": {"RAM": 58},
        "tier_misses": {"PFS": 70},
        "ram_peak_bytes": 67108864.0,
        "evictions": 185,
        "faults": {},
    },
    "In-Memory Optimal": {
        "solution": "In-Memory Optimal",
        "workload": "partitioned-sequential",
        "end_to_end_time": 0.26507531875000007,
        "read_time": 0.4088958187499996,
        "hit_ratio": 0.6875,
        "hits": 88,
        "misses": 40,
        "bytes_read": 134217728,
        "bytes_prefetched": 243269632,
        "tier_hits": {"RAM": 88},
        "tier_misses": {"PFS": 40},
        "ram_peak_bytes": 67108864.0,
        "evictions": 168,
        "faults": {},
    },
    "In-Memory Naive": {
        "solution": "In-Memory Naive",
        "workload": "partitioned-sequential",
        "end_to_end_time": 0.3422932687500001,
        "read_time": 0.8146922999999995,
        "hit_ratio": 0.3671875,
        "hits": 47,
        "misses": 81,
        "bytes_read": 134217728,
        "bytes_prefetched": 359661568,
        "tier_hits": {"RAM": 47},
        "tier_misses": {"PFS": 81},
        "ram_peak_bytes": 67108864.0,
        "evictions": 283,
        "faults": {},
    },
    "Application-centric": {
        "solution": "Application-centric",
        "workload": "pipeline-sequential",
        "end_to_end_time": 0.2751955125000001,
        "read_time": 0.9631281999999999,
        "hit_ratio": 0.25,
        "hits": 32,
        "misses": 96,
        "bytes_read": 134217728,
        "bytes_prefetched": 37748736,
        "tier_hits": {"RAM": 32},
        "tier_misses": {"PFS": 96},
        "ram_peak_bytes": 8388608.0,
        "evictions": 40,
        "faults": {},
    },
    "Stacker": {
        "solution": "Stacker",
        "workload": "montage-8",
        "end_to_end_time": 0.9011780833333326,
        "read_time": 0.5060683874999927,
        "hit_ratio": 0.267578125,
        "hits": 137,
        "misses": 375,
        "bytes_read": 536870912,
        "bytes_prefetched": 288358400,
        "tier_hits": {"RAM": 137},
        "tier_misses": {"BurstBuffer": 375},
        "ram_peak_bytes": 8388608.0,
        "evictions": 269,
        "faults": {},
    },
    "KnowAc": {
        "solution": "KnowAc",
        "workload": "montage-8",
        "end_to_end_time": 0.895902341666666,
        "read_time": 0.48417956249999383,
        "hit_ratio": 0.302734375,
        "hits": 155,
        "misses": 357,
        "bytes_read": 536870912,
        "bytes_prefetched": 418381824,
        "tier_hits": {"RAM": 155},
        "tier_misses": {"BurstBuffer": 357},
        "ram_peak_bytes": 8388608.0,
        "evictions": 391,
        "faults": {},
    },
}


@pytest.mark.parametrize("name", list(RUNS))
def test_baseline_run_result_matches_the_pin(name):
    assert run(name) == PINNED[name]


def test_every_comparator_pin_prefetches_and_evicts():
    for name, pin in PINNED.items():
        if name != "None":
            assert pin["bytes_prefetched"] > 0 and pin["evictions"] > 0, name
