"""Telemetry: sim-clock span tracing, metric registry, and exporters.

The observability layer of the reproduction.  One
:class:`~repro.telemetry.handle.Telemetry` handle per run carries

* a :class:`~repro.telemetry.tracer.SpanTracer` keyed to the DES virtual
  clock — spans and marks on per-thread tracks, with attributes and
  per-fs-event *flow ids*, so a single inotify event is traceable
  end-to-end: emit → queue dwell → auditor fold → DHM update →
  placement decision → data movement;
* a :class:`~repro.telemetry.registry.MetricRegistry` of deterministic
  log-bucket histograms that layers register into (queue dwell, read
  and move latencies, DHM op costs, placement batch sizes), plus a
  gauge timeline sampled from the server's
  :meth:`~repro.core.server.HFetchServer.metrics` and the runner's read
  counters;
* exporters: Chrome ``trace_event`` JSON (Perfetto / ``about:tracing``),
  JSONL metric dumps, and a console summary table.

Usage::

    from repro.telemetry import Telemetry

    telemetry = Telemetry(label="demo", sample_interval=0.05)
    result = run_workload(workload, HFetchPrefetcher(), telemetry=telemetry)
    telemetry.export_chrome_trace("run.trace.json")
    print(telemetry.summary_table())

A ``telemetry=None`` run is bit-identical to
one without the subsystem — the same guarantee the fault-injection layer
makes, enforced by ``tests/telemetry/test_equivalence.py``.
"""

from repro.telemetry.analysis import (
    flow_latencies,
    flow_paths,
    load_trace,
    percentile,
    span_durations,
    trace_spans,
)
from repro.telemetry.exporters import (
    chrome_trace,
    console_summary,
    export_chrome_trace,
    export_metrics_jsonl,
    metrics_records,
)
from repro.telemetry.handle import Telemetry
from repro.telemetry.registry import Histogram, MetricRegistry
from repro.telemetry.schema import (
    CHROME_TRACE_SCHEMA,
    TraceValidationError,
    validate_chrome_trace,
)
from repro.telemetry.tracer import Span, SpanTracer, Stream

__all__ = [
    "Telemetry",
    "Span",
    "SpanTracer",
    "Stream",
    "Histogram",
    "MetricRegistry",
    "chrome_trace",
    "console_summary",
    "export_chrome_trace",
    "export_metrics_jsonl",
    "metrics_records",
    "CHROME_TRACE_SCHEMA",
    "TraceValidationError",
    "validate_chrome_trace",
    "load_trace",
    "trace_spans",
    "flow_paths",
    "flow_latencies",
    "span_durations",
    "percentile",
]
