"""Exporters: Chrome ``trace_event`` JSON, JSONL metric dumps, console table.

Three views of one instrumented run:

* :func:`chrome_trace` / :func:`export_chrome_trace` — the span log as a
  Trace Event Format object loadable in Perfetto (https://ui.perfetto.dev)
  or ``about:tracing``.  Tracks become threads; spans with a flow id get
  ``s``/``t`` flow events so the event's path across tracks renders as
  arrows.
* :func:`metrics_records` / :func:`export_metrics_jsonl` — every
  histogram snapshot, every gauge's final value and the sampled gauge
  timeline, one JSON object per line.
* :func:`console_summary` — a fixed-width table of the headline metrics
  for terminal output.

Virtual seconds are exported as microseconds (the trace format's native
unit), so one simulated second reads as one second in the viewer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.metrics.report import format_table
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.handle import Telemetry

__all__ = [
    "chrome_trace",
    "export_chrome_trace",
    "metrics_records",
    "export_metrics_jsonl",
    "console_summary",
]

_US = 1e6  # virtual seconds -> trace microseconds


def chrome_trace(tracer: SpanTracer, label: str = "repro") -> dict:
    """Build the Trace Event Format object for one tracer's span log."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"hfetch-sim:{label}"},
        }
    ]
    for track, tid in tracer.tracks.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )

    track_ids = tracer.tracks
    flows_seen: set[int] = set()
    for span in tracer.spans:
        tid = track_ids[span.track]
        ts = span.start * _US
        record: dict = {
            "name": span.name,
            "cat": span.cat,
            "pid": 0,
            "tid": tid,
            "ts": ts,
        }
        if span.phase == "i":
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        else:
            record["ph"] = "X"
            end = span.end if span.end is not None else span.start
            record["dur"] = (end - span.start) * _US
        args = dict(span.args) if span.args else None
        if span.flow is not None:
            # carried in args too, so file-based analysis can recover the
            # flow without re-joining the s/t phase events
            args = args if args is not None else {}
            args["flow"] = span.flow
        if args:
            record["args"] = args
        events.append(record)
        if span.flow is not None:
            # first sighting starts the flow, later ones are steps — the
            # arrows Perfetto draws from emit to placement to movement
            phase = "t" if span.flow in flows_seen else "s"
            flows_seen.add(span.flow)
            events.append(
                {
                    "name": "fs-event",
                    "cat": "flow",
                    "ph": phase,
                    "id": span.flow,
                    "pid": 0,
                    "tid": tid,
                    "ts": ts,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "spans": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "flows": len(flows_seen),
        },
    }


def export_chrome_trace(tracer: SpanTracer, path: "str | Path", label: str = "repro") -> dict:
    """Write the Chrome trace JSON to ``path``; returns the object."""
    data = chrome_trace(tracer, label=label)
    Path(path).write_text(json.dumps(data))
    return data


def metrics_records(
    registry: MetricRegistry, label: str = "repro", when: Optional[float] = None
) -> list[dict]:
    """Flatten the registry into JSONL-ready records.

    One ``meta`` record, one record per histogram snapshot, one ``gauge``
    record per gauge (its value now), then one ``sample`` record per
    sampled gauge row (the gauge timeline, tier occupancy included).
    """
    records: list[dict] = [
        {
            "type": "meta",
            "label": label,
            "metrics": len(registry),
            "samples": len(registry.samples),
            **({"finalized_at": when} if when is not None else {}),
        }
    ]
    records.extend(registry.collect())
    for sample_when, row in registry.samples:
        records.append({"type": "sample", "when": sample_when, "gauges": row})
    return records


def export_metrics_jsonl(
    registry: MetricRegistry, path: "str | Path", label: str = "repro",
    when: Optional[float] = None,
) -> int:
    """Write one JSON object per line to ``path``; returns the line count."""
    records = metrics_records(registry, label=label, when=when)
    Path(path).write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return len(records)


def console_summary(telemetry: "Telemetry") -> str:
    """Fixed-width tables summarising one instrumented run."""
    tracer = telemetry.tracer
    registry = telemetry.registry
    sections: list[str] = []

    headline = telemetry.headline()
    sections.append(
        format_table(
            [{"metric": k, "value": v} for k, v in headline.items()],
            columns=["metric", "value"],
            title=f"telemetry: {telemetry.label}",
        )
    )

    histograms = [h for h in registry.histograms() if h.count]
    if histograms:
        sections.append(
            format_table(
                [
                    {
                        "histogram": h.name,
                        "n": h.count,
                        "mean": h.mean,
                        "p50": h.quantile(0.5),
                        "p99": h.quantile(0.99),
                        "max": h.vmax,
                    }
                    for h in histograms
                ],
                columns=["histogram", "n", "mean", "p50", "p99", "max"],
                title="histograms",
            )
        )

    if registry.samples:
        last_when, last_row = registry.samples[-1]
        rows = [{"gauge": name, "last": value} for name, value in last_row.items()]
        sections.append(
            format_table(
                rows,
                columns=["gauge", "last"],
                title=f"gauges (sampled {len(registry.samples)}x, last at t={last_when:.3f}s)",
            )
        )

    if tracer is not None and tracer.spans:
        by_name: dict[str, tuple[int, float]] = {}
        for span in tracer.spans:
            count, total = by_name.get(span.name, (0, 0.0))
            by_name[span.name] = (count + 1, total + span.duration)
        rows = [
            {"span": name, "n": count, "total_s": total}
            for name, (count, total) in sorted(
                by_name.items(), key=lambda kv: -kv[1][1]
            )
        ]
        sections.append(
            format_table(rows, columns=["span", "n", "total_s"], title="spans")
        )

    return "\n\n".join(sections)
