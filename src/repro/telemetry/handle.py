"""The per-run telemetry handle threaded through every layer.

One :class:`Telemetry` object accompanies one workload run: the runner
binds it to the simulation environment, the server wires it into the
event queue, monitor, auditor, DHM, placement engine, I/O clients and
hierarchy, and each layer records spans and metrics through it.  After
the run, the handle exports a Chrome trace, a JSONL metric dump and a
console summary, and contributes headline numbers to
``RunResult.extra["telemetry"]``.

Instrumentation contract (mirrors the fault subsystem's equivalence
guarantee): layers hold ``telemetry = None`` unless a live, enabled
handle was provided — the disabled path costs one attribute load and a
``None`` check per site, and a run without telemetry is bit-identical
to one that predates the subsystem.  :func:`live` performs that
normalisation; :class:`NullTelemetry` is the explicit disabled object.

Telemetry never advances the virtual clock, so even an *enabled* run
produces the same :class:`~repro.metrics.collector.RunResult` as a
disabled one; the <5% budget in ``BENCH_PR3.json`` covers its wall-clock
cost only.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.telemetry.registry import MetricRegistry
from repro.telemetry.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = ["Telemetry", "NullTelemetry", "live"]


class Telemetry:
    """Tracer + metric registry + flow bookkeeping for one run.

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
        When True, the handle carries a
        :class:`~repro.diagnosis.provenance.ProvenanceLog` and every
        instrumented layer records decision provenance into it; the
        runner folds the derived headline into
        ``RunResult.extra["diagnosis"]`` and the full report is
        available via :meth:`diagnosis_report`.
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
        #: decision-provenance log, or None when diagnosis is off —
        #: layers guard on ``tel.provenance is not None`` exactly like
        #: the ``telemetry is None`` zero-overhead pattern
        self.provenance = None
        if diagnosis:
            from repro.diagnosis.provenance import ProvenanceLog

            self.provenance = ProvenanceLog()
        self._diagnosis_report = None
        #: segment key -> eid of the last fs event that touched it, the
        #: link that lets a placement decision inherit its event's flow
        self.key_flow: dict = {}
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
        if self.provenance is not None:
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
        """Run registered finalizers (idempotent; the runner calls this)."""
        if self._finalized:
            return
        self._finalized = True
        for fn in self._finalizers:
            fn()

    # -- diagnosis ---------------------------------------------------------
    def diagnosis_report(self):
        """The derived :class:`~repro.diagnosis.report.DiagnosisReport`,
        or ``None`` when the run had diagnosis off.  Derivation happens
        once and is cached (the runner triggers it for the headline)."""
        if self.provenance is None:
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
