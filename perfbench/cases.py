"""The benchmark's workloads: build one from a seed, run it, check it.

``montage`` and ``wrf`` are the largest points of Fig. 6(a) and 6(b),
built with the same builders and parameters as
``repro.experiments.fig6a`` / ``fig6b`` at rank divisor 4.  ``events`` is
the saturated Fig. 3(a) cell, driven the way ``repro.experiments.fig3a``
drives it.  ``montage-diagnose`` is ``montage`` with telemetry sampling
and the diagnosis layer on.

Every case is built fresh (simulated tiers start empty), runs on one
thread, and returns an :class:`Outcome` whose ``problems`` list is empty
only when every output check passed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Generator

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.monitor import HardwareMonitor
from repro.core.prefetcher import HFetchPrefetcher
from repro.events.queue import EventQueue
from repro.events.types import EventType, FileEvent
from repro.experiments.common import GB, MB, PAPER_RANKS, build_cluster, tier_spec
from repro.runtime.runner import WorkflowRunner
from repro.sim.core import Environment
from repro.storage.files import FileSystemModel
from repro.telemetry.handle import Telemetry
from repro.workloads.montage import montage_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.wrf import wrf_workload

__all__ = ["WORKLOADS", "Outcome", "WorkflowCase", "build", "expected_reads", "montage", "wrf"]

#: rank divisor of the Fig. 6 points (paper scale ÷ 4)
DIVISOR = 4


@dataclass
class Outcome:
    """What one run of a case produced."""

    #: simulated reads served (READ events folded, on ``events``)
    reads: int
    #: operations the run attempted (expected reads, or offered events)
    attempted: int
    #: of those, failed ones (all of them when a check fails)
    failed: int
    #: host seconds of the measured region
    host_s: float
    #: end-to-end simulated metrics (``None``: not applicable)
    sim: dict
    #: public counters of each layer, for the traced report
    counters: dict
    #: everything a repeat of the same seed must reproduce exactly
    fingerprint: tuple
    problems: list = field(default_factory=list)


def expected_reads(workload: WorkloadSpec, segment_size: int) -> dict[int, int]:
    """Segment reads each rank's spec implies, by pid."""
    sizes = {f.file_id: f.segment_size or segment_size for f in workload.files}
    out = {}
    for proc in workload.processes:
        n = 0
        for step in proc.steps:
            for op in step.reads:
                seg = sizes[op.file_id]
                n += (op.offset + op.size - 1) // seg - op.offset // seg + 1
        out[proc.pid] = n
    return out


# -- Fig. 6 workflow cases ---------------------------------------------------------


def montage(seed: int, divisor: int) -> tuple[WorkloadSpec, int, tuple, HFetchConfig]:
    """Largest Fig. 6(a) point, as ``fig6a.run_fig6a`` builds it."""
    ranks = PAPER_RANKS[-1] // divisor
    tiers = tier_spec(
        ram=int(1.5 * GB) // divisor, nvme=2 * GB // divisor, bb=400 * GB // divisor
    )
    config = HFetchConfig(
        engine_interval=0.25, segment_size=1 * MB, engine_update_threshold=100
    )
    workload = montage_workload(
        processes=ranks // 4,
        bytes_per_step=10 * MB,
        request_size=1 * MB,
        segment_size=1 * MB,
        compute_time=0.08,
        seed=seed,
    )
    return workload, ranks, tiers, config


def wrf(seed: int, divisor: int) -> tuple[WorkloadSpec, int, tuple, HFetchConfig]:
    """Largest Fig. 6(b) point, as ``fig6b.run_fig6b`` builds it."""
    ranks = PAPER_RANKS[-1] // divisor
    tiers = tier_spec(
        ram=int(1.25 * GB) // divisor, nvme=2 * GB // divisor, bb=80 * GB // divisor
    )
    config = HFetchConfig(engine_interval=0.25, segment_size=1 * MB, lookahead_depth=4)
    workload = wrf_workload(
        processes=ranks,
        total_bytes=80 * GB // divisor,
        request_size=1 * MB,
        segment_size=1 * MB,
        compute_time=0.6,
        seed=seed,
    )
    return workload, ranks, tiers, config


class WorkflowCase:
    """HFetch under ``WorkflowRunner`` on one Fig. 6 workload."""

    def __init__(self, make, seed: int, divisor: int = DIVISOR, diagnose: bool = False):
        t0 = perf_counter()
        workload, ranks, tiers, config = make(seed, divisor)
        t1 = perf_counter()
        self.prefetcher = HFetchPrefetcher(config)
        telemetry = Telemetry(sample_interval=0.1, diagnosis=True) if diagnose else None
        self.runner = WorkflowRunner(
            build_cluster(ranks, tiers, divisor=divisor),
            workload,
            self.prefetcher,
            seed=seed,
            telemetry=telemetry,
        )
        t2 = perf_counter()
        self.setup = {"workload": t1 - t0, "cluster": t2 - t1}
        self.expected = expected_reads(workload, config.segment_size)

    def run(self) -> Outcome:
        runner = self.runner
        t0 = perf_counter()
        result = runner.run()
        host_s = perf_counter() - t0
        attempted = sum(self.expected.values())
        reads = result.hits + result.misses
        problems = []
        if reads != attempted:
            problems.append(f"{reads} segment reads, spec implies {attempted}")
        tiered = sum(result.tier_hits.values()) + sum(result.tier_misses.values())
        if tiered != reads:
            problems.append(f"tier maps cover {tiered} reads of {reads}")
        per_rank = runner.metrics.per_process_reads
        unfinished = [p for p, n in self.expected.items() if per_rank.get(p, 0) != n]
        if unfinished:
            problems.append(f"{len(unfinished)} ranks did not finish their reads")
        server = self.prefetcher.server
        hierarchy = runner.ctx.hierarchy
        counters = {
            "agents": server.agent_manager,
            "auditor": server.auditor,
            "engine": server.engine,
            "io": server.io_clients,
            "monitor": server.monitor,
            "queue": server.queue,
            "stats_map": server.stats_map,
            "mapping_map": server.agent_manager.mapping_map,
            "hierarchy": hierarchy,
            "result": result,
            "runner": runner,
            "telemetry": runner.telemetry,
        }
        return Outcome(
            reads=reads,
            attempted=attempted,
            failed=attempted if problems else 0,
            host_s=host_s,
            sim={
                "hit_ratio": result.hit_ratio,
                "sim_makespan_s": result.end_to_end_time,
                "sim_read_time_s": result.read_time,
                "sim_events_per_s": server.queue.consumption_rate(),
            },
            counters=counters,
            # every RunResult field (hits, misses, both tier maps, times,
            # bytes, evictions...) except the free-form ``extra``
            fingerprint=replace(result, extra={}),
            problems=problems,
        )


# -- Fig. 3(a) saturated cell -----------------------------------------------------------

#: 6 daemon : 2 engine threads, the paper's best split
EVENT_DAEMONS, EVENT_ENGINES = 6, 2
EVENT_CORES = 32
EVENTS_PER_CORE = 4000
PER_CORE_RATE = 10_000.0


class EventsCase:
    """Open-loop READ events into the monitor's daemon pool and auditor.

    The seed picks each producer's phase within its first send interval
    and its starting segment, so the arrival interleaving and the
    segments the auditor folds vary with it.
    """

    def __init__(self, seed: int):
        t0 = perf_counter()
        segment_size = 1 * MB
        self.env = env = Environment()
        config = HFetchConfig(
            daemon_threads=EVENT_DAEMONS,
            engine_threads=EVENT_ENGINES,
            segment_size=segment_size,
            # keep the engine quiet: this cell isolates event consumption
            engine_interval=1e9,
            engine_update_threshold=1 << 60,
        )
        fs = FileSystemModel(default_segment_size=segment_size)
        self.file = fs.create("/pfs/events-bench", size=1 << 30)
        self.auditor = FileSegmentAuditor(config, fs)
        self.auditor.start_epoch(self.file.file_id)
        self.queue = EventQueue(env, capacity=config.event_queue_capacity)
        self.monitor = HardwareMonitor(env, config, self.queue, self.auditor)
        self.monitor.start()
        t1 = perf_counter()
        rng = random.Random(seed)
        self.interval = 1.0 / PER_CORE_RATE
        self.phases = [rng.random() * self.interval for _ in range(EVENT_CORES)]
        self.starts = [rng.randrange(self.file.num_segments) for _ in range(EVENT_CORES)]
        self.segment_size = segment_size
        self.setup = {"workload": perf_counter() - t1, "cluster": t1 - t0}

    def _producer(self, core: int) -> Generator:
        env, queue, file = self.env, self.queue, self.file
        n = file.num_segments
        start = self.starts[core]
        yield env.timeout(self.phases[core])
        for i in range(EVENTS_PER_CORE):
            yield env.timeout(self.interval)
            queue.push(
                FileEvent(
                    etype=EventType.READ,
                    file_id=file.file_id,
                    offset=((start + i) % n) * self.segment_size,
                    size=self.segment_size,
                    timestamp=env.now,
                    node=core,
                    pid=core,
                )
            )

    def run(self) -> Outcome:
        env, queue, monitor = self.env, self.queue, self.monitor
        t0 = perf_counter()
        producers = [
            env.process(self._producer(c), name=f"client-{c}") for c in range(EVENT_CORES)
        ]
        env.run(until=env.all_of(producers))
        # let the daemons drain the queue and finish folding what they hold
        horizon = env.now + 60.0
        while (queue.level > 0 or monitor.file_events < queue.consumed) and (
            env.peek() <= horizon
        ):
            env.step()
        host_s = perf_counter() - t0
        monitor.stop()
        offered = EVENT_CORES * EVENTS_PER_CORE
        problems = []
        if queue.produced + queue.dropped != offered:
            problems.append(
                f"{queue.produced} queued + {queue.dropped} dropped of {offered} offered"
            )
        if queue.consumed != queue.produced:
            problems.append(f"{queue.consumed} consumed of {queue.produced} queued")
        if self.auditor.events_processed != monitor.file_events:
            problems.append(
                f"auditor folded {self.auditor.events_processed} of "
                f"{monitor.file_events} daemon hand-offs"
            )
        rate = queue.consumption_rate()
        return Outcome(
            reads=monitor.file_events,
            attempted=offered,
            failed=offered if problems else queue.dropped,
            host_s=host_s,
            sim={
                "hit_ratio": None,
                "sim_makespan_s": env.now,
                "sim_read_time_s": None,
                "sim_events_per_s": rate,
            },
            counters={
                "auditor": self.auditor,
                "monitor": monitor,
                "queue": queue,
                "stats_map": self.auditor.stats_map,
            },
            fingerprint=(
                queue.produced,
                queue.consumed,
                queue.dropped,
                env.now,
                rate,
                self.auditor.score_updates,
            ),
            problems=problems,
        )


WORKLOADS = ("montage", "wrf", "events", "montage-diagnose")


def build(name: str, seed: int):
    """A freshly built case for workload ``name``."""
    if name == "montage":
        return WorkflowCase(montage, seed)
    if name == "wrf":
        return WorkflowCase(wrf, seed)
    if name == "montage-diagnose":
        return WorkflowCase(montage, seed, diagnose=True)
    if name == "events":
        return EventsCase(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
