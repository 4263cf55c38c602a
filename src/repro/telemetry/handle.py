"""The per-run telemetry handle threaded through every layer.

One :class:`Telemetry` object accompanies one workload run: the runner
binds it to the simulation environment, the server wires it into the
event queue, monitor, auditor, DHM, placement engine, I/O clients and
hierarchy, and each layer records spans, metrics and events (into the
handle's event log) through it.  After the run, the handle exports a
Chrome trace, a JSONL metric dump and a console summary, and
contributes headline numbers to
``RunResult.extra["telemetry"]``.

Instrumentation contract (mirrors the fault subsystem's equivalence
guarantee): layers hold ``telemetry = None`` unless a live, enabled
handle was provided — the disabled path costs one attribute load and a
``None`` check per site, and a run without telemetry is bit-identical
to one that predates the subsystem.  :func:`live` performs that
normalisation; :class:`NullTelemetry` is the explicit disabled object.

Telemetry never advances the virtual clock, so even an *enabled* run
produces the same :class:`~repro.metrics.collector.RunResult` as a
disabled one; it costs wall-clock time only.  ``BENCH_PR3.json`` records
a <5% budget for that cost, which no longer holds:
``benchmarks/run_benchmarks.py --telemetry-overhead`` measures 8.8-10.1%,
and no benchmark gate checks it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.telemetry.registry import MetricRegistry
from repro.telemetry.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = ["Telemetry", "NullTelemetry", "live"]


class Telemetry:
    """Tracer + metric registry + event log for one run.

    Parameters
    ----------
    label:
        Human-readable run label stamped into every export.
    max_spans:
        Span retention cap (see :class:`~repro.telemetry.tracer.SpanTracer`).
    sample_interval:
        Virtual-time cadence for the gauge/occupancy sampler the runner
        starts, or ``None`` for no periodic sampling.
    diagnosis:
        When True, the runner derives the diagnosis report from the
        run's event log (:attr:`provenance`, which every live handle
        records) and folds its headline into
        ``RunResult.extra["diagnosis"]``; the full report is available
        via :meth:`diagnosis_report`.
    """

    enabled = True

    def __init__(
        self,
        label: str = "run",
        max_spans: int = 1_000_000,
        sample_interval: Optional[float] = None,
        diagnosis: bool = False,
    ):
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError(f"sample_interval must be positive, got {sample_interval}")
        self.label = label
        self.max_spans = max_spans
        self.sample_interval = sample_interval
        self.registry = MetricRegistry()
        self.tracer: Optional[SpanTracer] = None
        from repro.diagnosis.provenance import ProvenanceLog

        #: the run's event log (decisions, moves, evictions, reads)
        self.provenance = ProvenanceLog()
        self.diagnosis = diagnosis
        self._diagnosis_report = None
        self._env: Optional["Environment"] = None
        # deferred-fold callbacks (e.g. the DHM reconstructs its per-op
        # cost histogram from op counters here, off the simulation hot
        # path); run once by :meth:`finalize` at the end of the run
        self._finalizers: list = []
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------
    def bind(self, env: "Environment") -> "Telemetry":
        """Attach to a run's environment (the runner calls this once)."""
        if self._env is env:
            return self
        if self._env is not None:
            raise RuntimeError(
                "Telemetry handle is already bound to a run; use a fresh "
                "handle per run (traces of two runs must not interleave)"
            )
        self._env = env
        self.tracer = SpanTracer(env, max_spans=self.max_spans)
        self.provenance.bind_env(env)
        return self

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return self._env is not None

    # -- deferred folding --------------------------------------------------
    def add_finalizer(self, fn) -> None:
        """Register a zero-arg callback to run once at end of run.

        Layers that can reconstruct a metric exactly from counters they
        maintain anyway register the reconstruction here instead of
        paying per-operation observation costs during the simulation.
        """
        self._finalizers.append(fn)

    def finalize(self) -> None:
        """Fill the views and run registered finalizers (idempotent; the
        runner calls this)."""
        if self._finalized:
            return
        self._finalized = True
        if self.tracer is not None:
            self.tracer.enforce_caps()
            self._fill_views()
        for fn in self._finalizers:
            fn()

    def _fill_views(self) -> None:
        """Fill the streams that are views of other records.

        The layers register them where they bind, so track ids and record
        order are as if recorded live.  ``engine.place`` and
        ``io.move_done`` come from the event log (a move's ``issued`` time
        is its decision's) and ``dhm.update`` from the ``auditor.fold``
        records; a view keeps what was recorded until the retention cap
        froze the trace.  ``io.move_latency_s`` (whole log) and
        ``engine.dirty_batch`` (``engine.pass`` spans) are folded here.
        """
        from repro.diagnosis.provenance import EV_DECISION, EV_MOVE_DONE

        tracer = self.tracer
        # the engine's track, and the I/O clients' one per destination tier
        views = {
            s.track: s for n in ("engine.place", "io.move_done") for s in tracer.named(n)
        }
        issued: dict = {}
        for ev in self.provenance.events:
            if ev[0] == EV_DECISION:
                issued[ev[2]] = ev[1]
                views["engine"].buf.extend((ev[1], ev[11], ev[8], ev[5]))
            elif ev[0] == EV_MOVE_DONE:
                views[f"io-{ev[5]}"].buf.extend(
                    (ev[1], ev[7], ev[4], ev[5], ev[6], issued[ev[2]])
                )
        h = self.registry.get("io.move_latency_s")
        for s in tracer.named("io.move_done"):  # before the cap trims them
            h.observe_many(ts - t0 for ts, t0 in zip(s.buf[0::6], s.buf[5::6]))
        for fold, dhm in zip(tracer.named("auditor.fold"), tracer.named("dhm.update")):
            dhm.buf.extend(chain.from_iterable(zip(fold.buf[0::3], fold.buf[1::3])))
            dhm.dropped += fold.dropped
            tracer.dropped += fold.dropped
            views["dhm"] = dhm
        if tracer.frozen_at is not None:  # the views were frozen empty
            for v in views.values():
                v.limit = v.stride * bisect_right(v.buf[0::v.stride], tracer.frozen_at)
            tracer.enforce_caps()
        passes = tracer.begun("engine.pass")
        if passes:
            h = self.registry.histogram(
                "engine.dirty_batch", lo=1.0, growth=2.0, buckets=24
            )
            for sp in passes:
                h.observe(float(sp.args["dirty"]))

    # -- diagnosis ---------------------------------------------------------
    def diagnosis_report(self):
        """The derived :class:`~repro.diagnosis.report.DiagnosisReport`,
        or ``None`` when the run had diagnosis off.  Derivation happens
        once and is cached (the runner triggers it for the headline)."""
        if not self.diagnosis:
            return None
        if self._diagnosis_report is None:
            from repro.diagnosis.report import DiagnosisReport

            self._diagnosis_report = DiagnosisReport.derive(self.provenance)
        return self._diagnosis_report

    # -- summaries ---------------------------------------------------------
    def flow_latencies(self, start_name: str, end_name: str) -> list[float]:
        """Per-flow ``start_name → end_name`` latencies off the live tracer."""
        if self.tracer is None:
            return []
        return list(self.tracer.flow_latencies(start_name, end_name).values())

    def headline(self) -> dict:
        """Scalar highlights for ``RunResult.extra`` / verbose rows.

        Works off the tracer's raw record streams (no span
        materialisation; the flow queries read only the stage columns
        they need), so the summary folded into ``RunResult.extra``
        stays cheap enough for the subsystem's wall-clock budget.
        """
        from repro.telemetry.analysis import percentile

        self.finalize()
        out: dict = {}
        tracer = self.tracer
        if tracer is not None:
            out["trace_spans"] = len(tracer)
            out["trace_dropped"] = tracer.dropped
            out["trace_flows"] = tracer.flow_count()
            to_place = list(
                tracer.flow_latencies("fs.emit", "engine.place").values()
            )
            if to_place:
                out["event_to_place_p50_s"] = percentile(to_place, 0.50)
                out["event_to_place_p99_s"] = percentile(to_place, 0.99)
            to_move = list(
                tracer.flow_latencies("fs.emit", "io.move_done").values()
            )
            if to_move:
                out["event_to_move_p99_s"] = percentile(to_move, 0.99)
        out["metrics"] = len(self.registry)
        out["gauge_samples"] = len(self.registry.samples)
        dwell = self.registry.get("queue.dwell_s")
        if dwell is not None and getattr(dwell, "count", 0):
            out["queue_dwell_p99_s"] = dwell.quantile(0.99)
        return out

    # -- exports -----------------------------------------------------------
    def export_chrome_trace(self, path: "str | Path") -> dict:
        """Write the span log as Chrome ``trace_event`` JSON."""
        from repro.telemetry.exporters import export_chrome_trace

        if self.tracer is None:
            raise RuntimeError("telemetry was never bound to a run; nothing to export")
        self.finalize()
        return export_chrome_trace(self.tracer, path, label=self.label)

    def export_metrics_jsonl(self, path: "str | Path") -> int:
        """Write every metric snapshot plus sampled gauges as JSONL."""
        from repro.telemetry.exporters import export_metrics_jsonl

        self.finalize()
        when = self._env.now if self._env is not None else None
        return export_metrics_jsonl(self.registry, path, label=self.label, when=when)

    def summary_table(self) -> str:
        """The console summary table."""
        from repro.telemetry.exporters import console_summary

        self.finalize()
        return console_summary(self)

    def __repr__(self) -> str:  # pragma: no cover
        spans = len(self.tracer.spans) if self.tracer is not None else 0
        return f"<Telemetry {self.label!r} bound={self.bound} spans={spans} metrics={len(self.registry)}>"


class NullTelemetry:
    """The explicit do-nothing handle.

    Passing this (or ``None``) disables instrumentation entirely:
    :func:`live` maps it to ``None`` so every layer's guard is a single
    ``is not None`` check — the zero-overhead path.
    """

    enabled = False
    label = "null"
    tracer = None
    sample_interval = None
    provenance = None

    def bind(self, env) -> "NullTelemetry":
        """No-op (matches :meth:`Telemetry.bind`)."""
        return self

    def diagnosis_report(self):
        """Diagnosis is never on for the null handle."""
        return None

    @property
    def bound(self) -> bool:
        """Never bound."""
        return False

    def headline(self) -> dict:
        """Nothing to report."""
        return {}

    def summary_table(self) -> str:
        """Nothing to render."""
        return "(telemetry disabled)"

    def __repr__(self) -> str:  # pragma: no cover
        return "<NullTelemetry>"


def live(telemetry) -> Optional[Telemetry]:
    """Normalise a telemetry argument to ``Telemetry | None``.

    ``None``, :class:`NullTelemetry` and anything with ``enabled=False``
    all become ``None``, so instrumented layers store either a live
    handle or ``None`` — never a disabled object they would keep
    calling into.
    """
    if telemetry is None or not getattr(telemetry, "enabled", False):
        return None
    return telemetry
