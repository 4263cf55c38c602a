"""RunResult pins: exact simulated outcomes of small Fig. 6 runs.

Every ``RunResult`` field except the free-form ``extra`` is pinned for
divisor-32 Montage and WRF runs at seed 2020 (built like the largest
Fig. 6(a)/6(b) points), plus one Montage run through a DHM shard outage.
A host-side speedup of any layer must reproduce these values exactly; a
change that moves one of them changes simulated behaviour and must say
so (and re-record the pin).
"""

from dataclasses import asdict, replace

import pytest

from repro.core.config import HFetchConfig
from repro.core.prefetcher import HFetchPrefetcher
from repro.experiments.common import GB, MB, PAPER_RANKS, build_cluster, tier_spec
from repro.faults import FaultPlan
from repro.runtime.runner import WorkflowRunner
from repro.workloads.montage import montage_workload
from repro.workloads.wrf import wrf_workload

SEED = 2020
DIVISOR = 32
RANKS = PAPER_RANKS[-1] // DIVISOR


def montage_run(fault_plan=None, **config):
    tiers = tier_spec(
        ram=int(1.5 * GB) // DIVISOR, nvme=2 * GB // DIVISOR, bb=400 * GB // DIVISOR
    )
    workload = montage_workload(
        processes=RANKS // 4,
        bytes_per_step=10 * MB,
        request_size=1 * MB,
        segment_size=1 * MB,
        compute_time=0.08,
        seed=SEED,
    )
    cfg = HFetchConfig(
        engine_interval=0.25, segment_size=1 * MB, engine_update_threshold=100, **config
    )
    return WorkflowRunner(
        build_cluster(RANKS, tiers, divisor=DIVISOR),
        workload,
        HFetchPrefetcher(cfg),
        seed=SEED,
        fault_plan=fault_plan,
    ).run()


def wrf_run():
    tiers = tier_spec(
        ram=int(1.25 * GB) // DIVISOR, nvme=2 * GB // DIVISOR, bb=80 * GB // DIVISOR
    )
    workload = wrf_workload(
        processes=RANKS,
        total_bytes=80 * GB // DIVISOR,
        request_size=1 * MB,
        segment_size=1 * MB,
        compute_time=0.6,
        seed=SEED,
    )
    cfg = HFetchConfig(engine_interval=0.25, segment_size=1 * MB, lookahead_depth=4)
    return WorkflowRunner(
        build_cluster(RANKS, tiers, divisor=DIVISOR), workload, HFetchPrefetcher(cfg), seed=SEED
    ).run()


def shard_outage_run():
    # shard 0 of both hash maps is down from 0.4 s to 1.0 s of a ~1.5 s run
    plan = FaultPlan(seed=SEED).shard_outage(0, at=0.4, duration=0.6)
    return montage_run(fault_plan=plan, dhm_wal=True)

#: recorded before the placement pass was optimised (exact float reprs)
PINNED = {
    "montage": {
        "solution": "HFetch",
        "workload": "montage-20",
        "end_to_end_time": 1.4807881000000047,
        "read_time": 2.1328808395833656,
        "hit_ratio": 0.6809375,
        "hits": 2179,
        "misses": 1021,
        "bytes_read": 3355443200,
        "bytes_prefetched": 159383552,
        "tier_hits": {"NVMe": 1226, "RAM": 953},
        "tier_misses": {"BurstBuffer": 1021},
        "ram_peak_bytes": 50331648.0,
        "evictions": 0,
        "faults": {},
    },
    "montage-shard-outage": {
        "solution": "HFetch",
        "workload": "montage-20",
        "end_to_end_time": 1.481474870833339,
        "read_time": 2.15152101458337,
        "hit_ratio": 0.6803125,
        "hits": 2177,
        "misses": 1023,
        "bytes_read": 3355443200,
        "bytes_prefetched": 159383552,
        "tier_hits": {"NVMe": 1224, "RAM": 953},
        "tier_misses": {"BurstBuffer": 1023},
        "ram_peak_bytes": 50331648.0,
        "evictions": 0,
        "faults": {"shard_outage": 2},
    },
    "wrf": {
        "solution": "HFetch",
        "workload": "wrf-80",
        "end_to_end_time": 2.6320791854166687,
        "read_time": 3.625181684549978,
        "hit_ratio": 0.06328125,
        "hits": 162,
        "misses": 2398,
        "bytes_read": 2684354560,
        "bytes_prefetched": 764411904,
        "tier_hits": {"NVMe": 92, "RAM": 70},
        "tier_misses": {"BurstBuffer": 2398},
        "ram_peak_bytes": 41943040.0,
        "evictions": 0,
        "faults": {},
    },
}

RUNS = {"montage": montage_run, "wrf": wrf_run, "montage-shard-outage": shard_outage_run}


def fields(result) -> dict:
    """Every RunResult field except ``extra``."""
    out = asdict(replace(result, extra={}))
    del out["extra"]
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_result_matches_the_pin(name):
    assert fields(RUNS[name]()) == PINNED[name]
