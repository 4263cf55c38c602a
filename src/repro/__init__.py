"""HFetch reproduction: hierarchical, data-centric, server-push prefetching.

A full Python reproduction of *HFetch: Hierarchical Data Prefetching for
Scientific Workflows in Multi-Tiered Storage Environments* (Devarajan,
Kougkas, Sun — IPDPS 2020), including every substrate the paper's system
depends on, running on a from-scratch discrete-event simulation of an
Ares-like cluster.

Quickstart::

    from repro import (
        ClusterSpec, SimulatedCluster, WorkflowRunner,
        HFetchPrefetcher, NoPrefetcher,
    )
    from repro.workloads.synthetic import shared_sequential_workload

    workload = shared_sequential_workload(processes=64, steps=4)
    cluster = SimulatedCluster(ClusterSpec().scaled_for(workload.num_processes))
    result = WorkflowRunner(cluster, workload, HFetchPrefetcher()).run()
    print(result.end_to_end_time, result.hit_ratio)

Package layout:

================  =============================================================
``repro.sim``     discrete-event simulation kernel (environment, resources,
                  bandwidth pipes, seeded RNG)
``repro.storage`` the DMSH: device profiles, tiers, hierarchy, files/segments,
                  cache-replacement policies
``repro.events``  the enriched-inotify event substrate
``repro.network`` cluster topology and the node-to-node communicator
``repro.dhm``     the distributed hash map (HCL stand-in) with WAL durability
``repro.core``    HFetch itself: monitor, auditor, Eq. 1 scoring, Algorithm 1
                  placement engine, I/O clients, agents, server
``repro.prefetchers`` every baseline the paper compares against
``repro.workloads`` pattern generators, synthetic builders, Montage and WRF
``repro.runtime`` the simulated cluster and the workload runner
``repro.metrics`` collectors and table rendering
``repro.telemetry`` zero-overhead tracing/metrics instrumentation
``repro.diagnosis`` prefetch attribution, waste/drift analysis, oracle
                  counterfactual (``python -m repro diagnose``)
``repro.experiments`` one module per paper figure + ablations
================  =============================================================
"""

from repro.core.config import HFetchConfig
from repro.core.prefetcher import HFetchPrefetcher
from repro.core.scoring import batch_scores, segment_score
from repro.core.server import HFetchServer
from repro.diagnosis import DiagnosisReport, ProvenanceLog
from repro.metrics.collector import MetricsCollector, RunResult
from repro.metrics.report import format_run_results, format_table
from repro.prefetchers import (
    AppCentricPrefetcher,
    InMemoryNaivePrefetcher,
    InMemoryOptimalPrefetcher,
    KnowAcPrefetcher,
    NoPrefetcher,
    ParallelPrefetcher,
    Prefetcher,
    SerialPrefetcher,
    StackerPrefetcher,
)
from repro.runtime.cluster import ClusterSpec, SimulatedCluster
from repro.runtime.runner import WorkflowRunner, run_workload
from repro.sim.core import Environment
from repro.storage.segments import SegmentKey
from repro.telemetry.handle import Telemetry
from repro.workloads.spec import (
    AppSpec,
    FileDecl,
    ProcessSpec,
    ReadOp,
    StepSpec,
    WorkloadSpec,
)

__version__ = "1.0.0"

__all__ = [
    "AppCentricPrefetcher",
    "AppSpec",
    "ClusterSpec",
    "DiagnosisReport",
    "Environment",
    "FileDecl",
    "HFetchConfig",
    "HFetchPrefetcher",
    "HFetchServer",
    "InMemoryNaivePrefetcher",
    "InMemoryOptimalPrefetcher",
    "KnowAcPrefetcher",
    "MetricsCollector",
    "NoPrefetcher",
    "ParallelPrefetcher",
    "Prefetcher",
    "ProcessSpec",
    "ProvenanceLog",
    "ReadOp",
    "RunResult",
    "SegmentKey",
    "SerialPrefetcher",
    "SimulatedCluster",
    "StackerPrefetcher",
    "StepSpec",
    "Telemetry",
    "WorkflowRunner",
    "WorkloadSpec",
    "batch_scores",
    "format_run_results",
    "format_table",
    "run_workload",
    "segment_score",
    "__version__",
]
