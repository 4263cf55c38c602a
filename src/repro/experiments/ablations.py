"""Ablation studies on HFetch's design choices.

The paper motivates several design decisions without sweeping them; these
experiments quantify each one on a fixed mid-size workload:

* :func:`ablate_decay_base` — the Eq. 1 decay base ``p`` (the paper only
  requires ``p >= 2``).
* :func:`ablate_segment_size` — the prefetching granularity (§V-c argues
  for dynamic, finer-than-file granularity).
* :func:`ablate_lookahead` — the sequencing-lookahead depth (the "logical
  map of which segments are connected", §III-A.2).
* :func:`ablate_dhm` — the distributed hash map vs broadcasting every
  update across the cluster (§III-A.2 claims removing the DHM is
  "prohibitively expensive"); measured analytically through the DHM cost
  model plus the fabric's metadata cost.
* :func:`ablate_reactiveness_trigger` — interval-driven vs count-driven
  engine triggers.
"""

from __future__ import annotations

from repro.core.config import HFetchConfig
from repro.core.prefetcher import HFetchPrefetcher
from repro.dhm.hashmap import OpCost
from repro.experiments.common import MB, build_cluster, tier_spec
from repro.metrics.report import format_table
from repro.runtime.runner import WorkflowRunner
from repro.workloads.synthetic import burst_workload

__all__ = [
    "ablate_decay_base",
    "ablate_scoring_model",
    "ablate_segment_size",
    "ablate_lookahead",
    "ablate_dhm",
    "ablate_pfs_striping",
    "ablate_reactiveness_trigger",
]


def _workload(processes=32, bursts=4, burst_mb=256, compute=0.25, segment_size=1 * MB, seed=2020):
    return burst_workload(
        processes=processes,
        bursts=bursts,
        burst_bytes_total=burst_mb * MB,
        compute_time=compute,
        segment_size=segment_size,
        name="ablation",
        seed=seed,
    )


def _tiers(burst_mb=256):
    burst = burst_mb * MB
    return tier_spec(ram=burst // 4, nvme=burst // 2, bb=burst)


def _run(config: HFetchConfig, workload=None, ranks=32):
    workload = workload if workload is not None else _workload()
    cluster = build_cluster(ranks, _tiers())
    pf = HFetchPrefetcher(config)
    result = WorkflowRunner(cluster, workload, pf).run()
    return result, pf


def ablate_decay_base(values=(2.0, 4.0, 8.0, 16.0), verbose: bool = False) -> list[dict]:
    """Sweep Eq. 1's decay base ``p``."""
    rows = []
    for p in values:
        result, pf = _run(HFetchConfig(engine_interval=10.0, decay_base=p))
        rows.append(
            {
                "decay_base_p": p,
                "time_s": result.end_to_end_time,
                "hit_ratio_%": 100 * result.hit_ratio,
                "moves": pf.metrics()["io.moves_completed"],
            }
        )
    if verbose:
        print(format_table(rows, title="Ablation: Eq. 1 decay base p"))
    return rows


def ablate_segment_size(values=(256 * 1024, 512 * 1024, 1 * MB, 2 * MB, 4 * MB), verbose=False) -> list[dict]:
    """Sweep the prefetching unit (segment size)."""
    rows = []
    for seg in values:
        workload = _workload(segment_size=seg)
        result, pf = _run(
            HFetchConfig(engine_interval=10.0, segment_size=seg), workload=workload
        )
        rows.append(
            {
                "segment_KiB": seg // 1024,
                "time_s": result.end_to_end_time,
                "hit_ratio_%": 100 * result.hit_ratio,
                "bytes_prefetched_MB": result.bytes_prefetched / MB,
            }
        )
    if verbose:
        print(format_table(rows, title="Ablation: segment size (prefetch granularity)"))
    return rows


def ablate_lookahead(values=(0, 2, 4, 8, 16, 32), verbose: bool = False) -> list[dict]:
    """Sweep the sequencing-lookahead depth."""
    rows = []
    for depth in values:
        result, pf = _run(HFetchConfig(engine_interval=10.0, lookahead_depth=depth))
        rows.append(
            {
                "lookahead_depth": depth,
                "time_s": result.end_to_end_time,
                "hit_ratio_%": 100 * result.hit_ratio,
                "bytes_prefetched_MB": result.bytes_prefetched / MB,
            }
        )
    if verbose:
        print(format_table(rows, title="Ablation: sequencing lookahead depth"))
    return rows


def ablate_dhm(update_counts=(10_000, 100_000, 1_000_000), verbose: bool = False) -> list[dict]:
    """DHM point-updates vs cluster-wide broadcast of segment statistics.

    §III-A.2: "Removing the distributed hashmap from HFetch's design will
    result in increased latencies since for each read request the auditor
    would need to propagate the update of segment statistics across the
    cluster, a prohibitively expensive operation."  We compare the total
    metadata time of N score updates under the two designs using the
    measured cost models (64 compute nodes, RDMA fabric).
    """
    from repro.network.comm import RDMA
    from repro.network.topology import ClusterTopology

    topo = ClusterTopology()
    cost = OpCost()
    # a DHM update touches one shard; ~1/nodes of them are local
    p_local = 1.0 / topo.compute_nodes
    dhm_per_update = p_local * cost.local + (1 - p_local) * cost.remote
    # a broadcast sends one metadata message to every other node
    msg = RDMA.message_latency + 64 / RDMA.bandwidth
    bcast_per_update = (topo.compute_nodes - 1) * msg
    rows = []
    for n in update_counts:
        rows.append(
            {
                "score_updates": n,
                "dhm_seconds": n * dhm_per_update,
                "broadcast_seconds": n * bcast_per_update,
                "slowdown_x": bcast_per_update / dhm_per_update,
            }
        )
    if verbose:
        print(format_table(rows, title="Ablation: DHM vs broadcast propagation"))
    return rows


def ablate_reactiveness_trigger(verbose: bool = False) -> list[dict]:
    """Interval-only vs count-only vs combined engine triggers."""
    configs = (
        ("interval-only (0.25s)", HFetchConfig(engine_interval=0.25, engine_update_threshold=1 << 30)),
        ("count-only (100)", HFetchConfig(engine_interval=1e9, engine_update_threshold=100)),
        ("combined (paper)", HFetchConfig(engine_interval=0.25, engine_update_threshold=100)),
    )
    rows = []
    for label, config in configs:
        result, pf = _run(config)
        rows.append(
            {
                "trigger": label,
                "time_s": result.end_to_end_time,
                "hit_ratio_%": 100 * result.hit_ratio,
                "engine_passes": pf.metrics()["engine.passes"],
            }
        )
    if verbose:
        print(format_table(rows, title="Ablation: engine trigger policy"))
    return rows


def ablate_scoring_model(models=("eq1", "ewma", "hybrid"), verbose: bool = False) -> list[dict]:
    """Eq. 1 vs the online-learned scoring models (paper future work)."""
    rows = []
    for model in models:
        result, pf = _run(HFetchConfig(engine_interval=10.0, scoring_model=model))
        rows.append(
            {
                "scoring_model": model,
                "time_s": result.end_to_end_time,
                "hit_ratio_%": 100 * result.hit_ratio,
                "moves": pf.metrics()["io.moves_completed"],
            }
        )
    if verbose:
        print(format_table(rows, title="Ablation: scoring model (Eq. 1 vs learned)"))
    return rows


def ablate_pfs_striping(verbose: bool = False) -> list[dict]:
    """Aggregate-pipe PFS vs striped server array (OrangeFS-style).

    Large batched reads (stage-in, collective prefetch ops) gain
    intra-request parallelism from striping; 1 MB application requests
    are unaffected — quantifying how much of the evaluation's shape
    depends on the PFS model choice.
    """
    from repro.prefetchers.none import NoPrefetcher
    from repro.runtime.cluster import ClusterSpec, SimulatedCluster
    from repro.runtime.runner import WorkflowRunner

    rows = []
    for striped in (False, True):
        for label, make_pf in (
            ("None", NoPrefetcher),
            ("HFetch", lambda: HFetchPrefetcher(HFetchConfig(engine_interval=0.25))),
        ):
            workload = _workload()
            spec = ClusterSpec(
                tiers=_tiers(), striped_pfs=striped
            ).scaled_for(32)
            cluster = SimulatedCluster(spec)
            result = WorkflowRunner(cluster, workload, make_pf()).run()
            rows.append(
                {
                    "pfs_model": "striped" if striped else "aggregate",
                    "solution": label,
                    "time_s": result.end_to_end_time,
                    "read_time_s": result.read_time,
                    "hit_ratio_%": 100 * result.hit_ratio,
                }
            )
    if verbose:
        print(format_table(rows, title="Ablation: PFS model (aggregate vs striped)"))
    return rows


if __name__ == "__main__":  # pragma: no cover
    ablate_decay_base(verbose=True)
    ablate_scoring_model(verbose=True)
    ablate_segment_size(verbose=True)
    ablate_lookahead(verbose=True)
    ablate_dhm(verbose=True)
    ablate_pfs_striping(verbose=True)
    ablate_reactiveness_trigger(verbose=True)
