"""Metric definitions and the per-layer report of a traced run.

End-to-end metrics come from untraced runs; per-layer metrics from a
:class:`~layers.LayerTracer` run plus the layers' public counters.  The
names and units here are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

from statistics import median

__all__ = ["END_TO_END", "PER_LAYER", "NOT_APPLICABLE", "layer_metrics", "tail_percentile"]

#: name -> unit of every end-to-end metric
END_TO_END = {
    "host_us_per_read": "us",
    "setup_s": "s",
    "host_peak_rss_mb": "MB",
    "hit_ratio": "ratio",
    "sim_makespan_s": "sim_s",
    "sim_read_time_s": "sim_s",
    "sim_events_per_s": "1/sim_s",
}

#: value reported for an end-to-end metric the workload has no notion of
#: (the console table marks it ``n/a``)
NOT_APPLICABLE = 1.0

#: span names (see ``layers.CALL_SPANS``) summed into each layer's share
LAYER_SPANS = {
    "runtime": ("proc.rank", "proc.app"),
    "events": ("events.emit",),
    "monitor": ("proc.hm-daemon", "proc.hm-capacity"),
    "auditor": ("auditor.fold",),
    "placement": (
        "proc.placement-engine", "placement.pass", "auditor.stats_of", "auditor.batch_score",
    ),
    "io": ("proc.ioclient", "io.submit"),
    "agents": ("agents.plan_read", "agents.on_access", "agents.locate"),
    "setup": ("setup.materialize",),
    "telemetry": ("diagnosis.derive", "proc.tier-sampler"),
}

#: name -> unit of every per-layer metric
PER_LAYER = {
    "sim.self_s": "s",
    "sim.resumes": "count",
    "sim.us_per_resume": "us",
    "runner.rank.self_s": "s",
    "runner.reads": "count",
    "events.emit.self_s": "s",
    "events.emitted": "count",
    "events.dropped": "count",
    "events.queue.max_level": "count",
    "monitor.daemon.self_s": "s",
    "monitor.busy_s": "sim_s",
    "monitor.file_events": "count",
    "auditor.fold.self_s": "s",
    "auditor.fold.calls": "count",
    "auditor.stats_of.calls": "count",
    "auditor.stats_of.self_s": "s",
    "auditor.batch_score.self_s": "s",
    "auditor.score_updates": "count",
    "auditor.dirty_dropped_frac": "ratio",
    "dhm.stats.gets": "count",
    "dhm.stats.updates": "count",
    "dhm.stats.local_ops": "count",
    "dhm.stats.cost_s": "sim_s",
    "dhm.mapping.gets": "count",
    "placement.pass.self_s": "s",
    "placement.passes": "count",
    "placement.pass_ms.p50": "ms",
    "placement.pass_ms.tail": "ms",
    "placement.placed": "count",
    "placement.demoted": "count",
    "placement.rejected": "count",
    "placement.plan_s": "sim_s",
    "io.worker.self_s": "s",
    "io.submit.self_s": "s",
    "io.moves": "count",
    "io.bytes_moved_mb": "MB",
    "io.move_s": "sim_s",
    "io.hits_per_move": "ratio",
    "agents.plan_read.self_s": "s",
    "agents.on_access.self_s": "s",
    "agents.locate.self_s": "s",
    "agents.location_queries": "count",
    "storage.evictions": "count",
    "storage.ram_peak_mb": "MB",
    "storage.hits.RAM": "count",
    "storage.hits.NVMe": "count",
    "storage.misses.BurstBuffer": "count",
    "diagnosis.derive_s": "s",
    "telemetry.records": "count",
    "telemetry.overhead_frac": "ratio",
    "setup.workload_s": "s",
    "setup.cluster_s": "s",
    "setup.materialize_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    **{f"share.{layer}": "ratio" for layer in ("sim", *LAYER_SPANS, "other")},
}

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(p, value)``: the highest percentile with at least ten samples above it.

    Nearest-rank on the sorted samples; ``(0.0, 0.0)`` for no samples and
    the maximum (``p`` = 100) when there are too few for any percentile.
    """
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100.0))]
    return 100.0, ordered[-1]


def layer_metrics(tracer, outcome, setup: dict) -> dict[str, float]:
    """Every per-layer metric except the two overhead ratios.

    ``outcome.host_s`` is the traced wall time the self times are shares
    of; counters the workload has no component for read 0.
    """
    wall = outcome.host_s
    spans = tracer.self_s
    calls = tracer.calls
    c = outcome.counters
    auditor, monitor, queue, stats_map = c["auditor"], c["monitor"], c["queue"], c["stats_map"]
    # components the workload lacks are None here: getattr(None, name, 0) is 0
    engine, io, result, telemetry = c.get("engine"), c.get("io"), c.get("result"), c.get("telemetry")
    hierarchy = c.get("hierarchy")
    tier_hits = getattr(result, "tier_hits", {})

    sim_self = wall - tracer.attributed_s
    resumes = sum(n for name, n in calls.items() if name.startswith("proc."))
    _p, tail = tail_percentile(tracer.pass_ms)
    records = 0
    if telemetry is not None:
        records = len(telemetry.tracer) + len(telemetry.provenance or ())
    moves = getattr(io, "moves_completed", 0)
    m = {
        "sim.self_s": sim_self,
        "sim.resumes": resumes,
        "sim.us_per_resume": sim_self / resumes * 1e6 if resumes else 0.0,
        "runner.rank.self_s": spans.get("proc.rank", 0.0),
        "runner.reads": outcome.reads,
        "events.emit.self_s": spans.get("events.emit", 0.0),
        "events.emitted": queue.produced + queue.dropped,
        "events.dropped": queue.dropped,
        "events.queue.max_level": queue.max_level,
        "monitor.daemon.self_s": tracer.span_seconds(*LAYER_SPANS["monitor"]),
        "monitor.busy_s": monitor.busy_time,
        "monitor.file_events": monitor.file_events,
        "auditor.fold.self_s": spans.get("auditor.fold", 0.0),
        "auditor.fold.calls": calls.get("auditor.fold", 0),
        "auditor.stats_of.calls": calls.get("auditor.stats_of", 0),
        "auditor.stats_of.self_s": spans.get("auditor.stats_of", 0.0),
        "auditor.batch_score.self_s": spans.get("auditor.batch_score", 0.0),
        "auditor.score_updates": auditor.score_updates,
        "auditor.dirty_dropped_frac": (
            auditor.dirty_dropped / auditor.score_updates if auditor.score_updates else 0.0
        ),
        "dhm.stats.gets": stats_map.gets,
        "dhm.stats.updates": stats_map.updates,
        "dhm.stats.local_ops": stats_map.local_ops,
        "dhm.stats.cost_s": stats_map.total_cost,
        "dhm.mapping.gets": getattr(c.get("mapping_map"), "gets", 0),
        "placement.pass.self_s": tracer.span_seconds("proc.placement-engine", "placement.pass"),
        "placement.passes": getattr(engine, "passes", 0),
        "placement.pass_ms.p50": median(tracer.pass_ms) if tracer.pass_ms else 0.0,
        "placement.pass_ms.tail": tail,
        "placement.placed": getattr(engine, "segments_placed", 0),
        "placement.demoted": getattr(engine, "segments_demoted", 0),
        "placement.rejected": getattr(engine, "segments_rejected", 0),
        "placement.plan_s": getattr(engine, "plan_time", 0.0),
        "io.worker.self_s": spans.get("proc.ioclient", 0.0),
        "io.submit.self_s": spans.get("io.submit", 0.0),
        "io.moves": moves,
        "io.bytes_moved_mb": getattr(io, "bytes_moved", 0) / (1 << 20),
        "io.move_s": getattr(io, "move_time", 0.0),
        "io.hits_per_move": result.hits / moves if moves else 0.0,
        "agents.plan_read.self_s": spans.get("agents.plan_read", 0.0),
        "agents.on_access.self_s": spans.get("agents.on_access", 0.0),
        "agents.locate.self_s": spans.get("agents.locate", 0.0),
        "agents.location_queries": getattr(c.get("agents"), "location_queries", 0),
        "storage.evictions": getattr(hierarchy, "evictions", 0),
        "storage.ram_peak_mb": (
            hierarchy.by_name("RAM").peak_used / (1 << 20) if hierarchy is not None else 0.0
        ),
        "storage.hits.RAM": tier_hits.get("RAM", 0),
        "storage.hits.NVMe": tier_hits.get("NVMe", 0),
        "storage.misses.BurstBuffer": getattr(result, "tier_misses", {}).get("BurstBuffer", 0),
        "diagnosis.derive_s": getattr(c.get("runner"), "diagnosis_derive_s", 0.0),
        "telemetry.records": records,
        "setup.workload_s": setup["workload"],
        "setup.cluster_s": setup["cluster"],
        "setup.materialize_s": spans.get("setup.materialize", 0.0),
        "trace.wall_s": wall,
    }
    covered = 0.0
    for layer, names in LAYER_SPANS.items():
        seconds = tracer.span_seconds(*names)
        covered += seconds
        m[f"share.{layer}"] = seconds / wall
    m["share.sim"] = sim_self / wall
    m["share.other"] = (sum(spans.values()) - covered) / wall
    return m
