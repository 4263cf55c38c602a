"""The workload runner.

Drives a :class:`~repro.workloads.spec.WorkloadSpec` against a
:class:`~repro.runtime.cluster.SimulatedCluster` under any
:class:`~repro.prefetchers.base.Prefetcher`:

* one simulation process per rank — waits for its application's
  dependencies, opens its files (``on_open``), then alternates compute
  and I/O bursts;
* each read is planned by the prefetcher (``plan_read``), served from
  the planned tier's contended device (grouped per tier so a multi-
  segment request issues one transfer per serving tier), then reported
  back (``on_access``);
* hits/misses, read times and the end-to-end makespan land in a
  :class:`~repro.metrics.collector.RunResult`;
* with telemetry on, each segment read is also one ``EV_READ`` in the
  event log, the run's only per-read record; the ``runner.read`` spans
  and ``read.latency_s`` are derived from it at finalize.

The runner is prefetcher-agnostic: HFetch's entire server-push pipeline
and the simplest no-prefetching baseline run under the identical loop.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import TYPE_CHECKING, Generator, Optional

from repro.faults.injector import FaultInjector, fault_targets_for
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector, RunResult
from repro.runtime.cluster import SimulatedCluster

if TYPE_CHECKING:  # avoid a circular import; Prefetcher is typing-only here
    from repro.prefetchers.base import Prefetcher
from repro.runtime.context import RuntimeContext
from repro.sim.core import Environment, Event
from repro.workloads.spec import ProcessSpec, ReadOp, WorkloadSpec

__all__ = ["WorkflowRunner", "run_workload"]


class WorkflowRunner:
    """Executes one workload under one prefetching solution."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        workload: WorkloadSpec,
        prefetcher: "Prefetcher",
        seed: int = 2020,
        fault_plan: Optional[FaultPlan] = None,
        telemetry=None,
    ):
        self.cluster = cluster
        self.workload = workload
        self.prefetcher = prefetcher
        self.fault_plan = fault_plan
        self.injector: Optional[FaultInjector] = None
        self.metrics = MetricsCollector()
        self.telemetry = tel = telemetry
        if tel is not None:
            tel.bind(cluster.env)
            # views the handle fills from EV_READ at finalize, registered
            # here so track ids and record order are as if recorded live
            tel.registry.histogram("read.latency_s")
            for p in workload.processes:
                tel.tracer.stream(
                    "runner.read", "app", f"rank-{p.pid}",
                    kind="span", fields=("file", "bytes"),
                )
        self.ctx: RuntimeContext = cluster.context(
            metrics=self.metrics, seed=seed, telemetry=tel
        )
        # the run's event log (telemetry runs only); the runner records
        # the read side and tells the log the hierarchy's shape, so
        # baseline prefetchers get oracle/regret numbers too
        self._prov = tel.provenance if tel is not None else None
        #: wall seconds run() spent deriving the diagnosis report (an
        #: offline analysis; kept out of the recording-overhead budget)
        self.diagnosis_derive_s = 0.0
        if self._prov is not None:
            self._prov.set_tiers(self.ctx.hierarchy, self.ctx.fs)
        self._app_done: dict[str, Event] = {}
        self._app_procs: dict[str, list] = defaultdict(list)

    # -- public ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the workload to completion and summarise it."""
        env = self.ctx.env
        tel = self.telemetry
        self.workload.materialize(self.ctx.fs)
        self.prefetcher.attach(self.ctx)
        self.prefetcher.on_workload(self.workload)
        if tel is not None:
            tel.registry.add_gauges(self._read_gauges)
            tel.start_sampler()
            run_span = tel.tracer.begin(
                "run",
                track="runner",
                cat="run",
                solution=self.prefetcher.name,
                workload=self.workload.name,
            )
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            self.injector = FaultInjector(
                env,
                self.fault_plan,
                fault_targets_for(self.prefetcher, self.ctx),
                metrics=self.metrics,
            )
            self.injector.start()

        # application completion events for pipeline dependencies
        for app in self.workload.apps:
            self._app_done[app.name] = env.event()

        start_time = env.now
        procs = [
            env.process(self._process_body(p), name=f"rank-{p.pid}")
            for p in self.workload.processes
        ]
        for p, spec in zip(procs, self.workload.processes):
            self._app_procs[spec.app].append(p)
        for app in self.workload.apps:
            env.process(self._app_watcher(app.name), name=f"app-{app.name}")

        done = env.all_of(procs)
        env.run(until=done)
        end_time = env.now
        if self.injector is not None:
            self.injector.stop()
        self.prefetcher.detach()
        if tel is not None:
            tel.stop_sampler()
            tel.tracer.end(run_span, time_s=end_time - start_time)

        ram_peak = self._ram_peak()
        extra = {"profile_cost": self.prefetcher.profile_cost()}
        if tel is not None:
            extra["telemetry"] = tel.headline()
            if tel.diagnosis:
                # offline analysis, not simulation hot path: its (real)
                # wall cost is surfaced separately from the run's
                derive_start = perf_counter()
                extra["diagnosis"] = tel.diagnosis_report().headline()
                self.diagnosis_derive_s = perf_counter() - derive_start
        result = self.metrics.finalize(
            solution=self.prefetcher.name,
            workload=self.workload.name,
            end_to_end_time=end_time - start_time,
            bytes_prefetched=self.prefetcher.bytes_prefetched,
            ram_peak_bytes=ram_peak,
            evictions=self.ctx.hierarchy.evictions + self.prefetcher.cache_evictions,
            extra=extra,
        )
        return result

    def _read_gauges(self) -> dict:
        """The collector's headline counters, keyed by gauge name (the
        runner's gauge source in a telemetry run)."""
        m = self.metrics
        out = {
            "reads.hits": m.hits,
            "reads.misses": m.misses,
            "reads.bytes": m.bytes_read,
            "prefetch.bytes": self.prefetcher.bytes_prefetched,
        }
        hierarchy = self.ctx.hierarchy
        for tier in (*hierarchy.tiers, hierarchy.backing):
            out[f"reads.tier.{tier.name}"] = m.tier_hits.get(tier.name, 0)
            out[f"reads.tier.{tier.name}.miss"] = m.tier_misses.get(tier.name, 0)
        return out

    # -- per-rank body --------------------------------------------------------------
    def _process_body(self, spec: ProcessSpec) -> Generator:
        ctx = self.ctx
        env = ctx.env
        node = ctx.topology.node_of_rank(spec.pid)

        # wait for upstream applications of the pipeline
        app = self.workload.app(spec.app)
        for dep in app.depends_on:
            yield self._app_done[dep]
        if spec.start_delay > 0:
            yield env.timeout(spec.start_delay)

        # fopen (read flags) on every file this rank uses
        for file_id in spec.files_used:
            self.prefetcher.on_open(spec.pid, node, file_id)

        for step in spec.steps:
            if step.compute_time > 0:
                yield env.timeout(step.compute_time)
            for op in step.writes:
                yield from self._serve_write(spec, node, op)
            for op in step.reads:
                yield from self._serve_read(spec, node, op)

        for file_id in spec.files_used:
            self.prefetcher.on_close(spec.pid, node, file_id)

    def _serve_write(self, spec: ProcessSpec, node: int, op: ReadOp) -> Generator:
        """Write ``op`` to the file's origin tier and notify the prefetcher.

        Writes go straight to the origin (this reproduction models the
        read path; write buffering is out of scope, as it is for the
        paper) and trigger the consistency invalidation of any
        prefetched copies (§III-B).
        """
        ctx = self.ctx
        origin = ctx.origin_tier(op.file_id)
        yield from origin.write(op.size)
        if ctx.fs.exists(op.file_id):
            ctx.fs.touch_write(op.file_id)
        self.prefetcher.on_write(spec.pid, node, op.file_id, op.offset, op.size)

    def _app_watcher(self, app_name: str) -> Generator:
        yield self.ctx.env.all_of(self._app_procs[app_name])
        self._app_done[app_name].succeed(app_name)

    # -- one read request --------------------------------------------------------------
    def _serve_read(self, spec: ProcessSpec, node: int, op: ReadOp) -> Generator:
        ctx = self.ctx
        env = ctx.env
        f = ctx.fs.get(op.file_id)
        keys = f.read_segments(op.offset, op.size)
        if not keys:
            return

        # plan every covered segment, group by serving tier
        groups: dict = {}
        metadata_cost = 0.0
        per_segment = []
        for key in keys:
            plan = self.prefetcher.plan_read(spec.pid, node, key)
            metadata_cost += plan.metadata_cost
            nbytes = f.segment_bytes(key)
            entry = groups.setdefault(id(plan.tier), [plan.tier, 0, False])
            entry[1] += nbytes
            entry[2] = entry[2] or plan.cross_node
            per_segment.append((key, plan.tier, nbytes))

        t0 = env.now
        if metadata_cost > 0:
            yield env.timeout(metadata_cost)
        for tier, nbytes, cross in groups.values():
            yield from tier.read(nbytes)
            if cross:
                yield from ctx.comm.bulk_transfer(0, 1, nbytes)
        duration = env.now - t0

        # per-segment accounting (duration attributed proportionally);
        # the loop does not yield, so a request's EV_READ records are
        # contiguous in the event log
        total = sum(n for _k, _t, n in per_segment) or 1
        origin_name = ctx.origin_tier(f).name
        prov = self._prov
        for key, tier, nbytes in per_segment:
            hit = ctx.is_hit(f, tier)
            self.metrics.record_read(
                pid=spec.pid,
                tier_name=tier.name,
                nbytes=nbytes,
                duration=duration * (nbytes / total),
                hit=hit,
                origin_name=origin_name,
            )
            if prov is not None:
                prov.read(key, tier.name, origin_name, hit, nbytes, spec.pid, t0, op.size)
        self.prefetcher.on_access(spec.pid, node, op.file_id, op.offset, op.size)

    # -- helpers -----------------------------------------------------------------------
    def _ram_peak(self) -> float:
        # the hierarchy ledger covers HFetch; baselines account their own
        # managed caches — report whichever view is larger
        try:
            ledger = float(self.ctx.hierarchy.by_name("RAM").peak_used)
        except KeyError:
            ledger = 0.0
        return max(ledger, float(self.prefetcher.ram_peak_bytes))


def run_workload(
    workload: WorkloadSpec,
    prefetcher: "Prefetcher",
    cluster: Optional[SimulatedCluster] = None,
    seed: int = 2020,
    fault_plan: Optional[FaultPlan] = None,
    telemetry=None,
) -> RunResult:
    """One-shot convenience: build a cluster (if needed), run, summarise."""
    if cluster is None:
        from repro.runtime.cluster import ClusterSpec

        cluster = SimulatedCluster(ClusterSpec().scaled_for(workload.num_processes))
    return WorkflowRunner(
        cluster, workload, prefetcher, seed=seed, fault_plan=fault_plan,
        telemetry=telemetry,
    ).run()
