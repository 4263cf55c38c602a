"""The per-run telemetry handle threaded through every layer.

One :class:`Telemetry` object accompanies one workload run: the runner
binds it to the simulation environment, the server wires it into the
event queue, monitor, auditor, DHM, placement engine, I/O clients and
hierarchy, and each layer records spans, histograms and events (into
the handle's event log) through it; the gauges are sampled from the
server's :meth:`~repro.core.server.HFetchServer.metrics` and the
runner's read counters.  After the run, the handle exports a
Chrome trace, a JSONL metric dump and a console summary, and
contributes headline numbers to
``RunResult.extra["telemetry"]``.

Instrumentation contract (mirrors the fault subsystem's equivalence
guarantee): telemetry off is ``telemetry=None``.  The runner and the
server store the handle they were given, and layers hold
``telemetry = None`` unless their ``bind_telemetry`` received a handle —
the disabled path costs one attribute load and a ``None`` check per
site, and a run without telemetry is bit-identical to one that predates
the subsystem.

Telemetry never advances the virtual clock, so even an *enabled* run
produces the same :class:`~repro.metrics.collector.RunResult` as a
disabled one; it costs wall-clock time only.  ``BENCH_PR3.json`` records
a <5% budget for that cost, which no longer holds:
``benchmarks/run_benchmarks.py --telemetry-overhead`` measures 8.8-10.1%,
and no benchmark gate checks it.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.sim.core import Interrupt
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = ["Telemetry"]


class Telemetry:
    """Tracer + metric registry + event log for one run.

    Parameters
    ----------
    label:
        Human-readable run label stamped into every export.
    max_spans:
        Span retention cap (see :class:`~repro.telemetry.tracer.SpanTracer`).
    sample_interval:
        Virtual-time cadence of the sampler the runner starts (see
        :meth:`start_sampler`), or ``None`` for no periodic sampling.
    diagnosis:
        When True, the runner derives the diagnosis report from the
        run's event log (:attr:`provenance`, which every live handle
        records) and folds its headline into
        ``RunResult.extra["diagnosis"]``; the full report is available
        via :meth:`diagnosis_report`.
    """

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
        self._sampler = None

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

    def start_sampler(self) -> None:
        """Sample the gauges and enforce the retention cap each interval."""
        if self.sample_interval is not None:
            # perfbench bins the sampler's wall time under this name
            self._sampler = self._env.process(self._sample_loop(), name="tier-sampler")

    def _tick(self) -> None:
        self.registry.record_sample(self._env.now)
        self.tracer.enforce_caps()

    def _sample_loop(self):
        try:
            while True:
                self._tick()
                yield self._env.timeout(self.sample_interval)
        except Interrupt:
            return

    def stop_sampler(self) -> None:
        """Stop sampling, flushing a sample at the stop instant so the
        gauge timeline reaches the end of the run."""
        if self._sampler is not None:
            samples = self.registry.samples
            if not samples or samples[-1][0] < self._env.now:
                self._tick()
            self._sampler.interrupt("stop")
            self._sampler = None

    # -- deferred folding --------------------------------------------------
    def add_finalizer(self, fn) -> None:
        """Register a zero-arg callback to run once at end of run.

        Layers that can reconstruct a metric exactly from counters they
        maintain anyway register the reconstruction here instead of
        paying per-operation observation costs during the simulation.
        """
        self._finalizers.append(fn)

    def finalize(self) -> None:
        """Fill the views, settle the retention cap and run registered
        finalizers (idempotent; the runner calls this)."""
        if self._finalized:
            return
        self._finalized = True
        if self.tracer is not None:
            self.tracer.enforce_caps()
            self._fill_views()
            self.tracer.settle_cap()
        for fn in self._finalizers:
            fn()

    def _fill_views(self) -> None:
        """Fill the streams that are views of other records.

        The layers register them where they bind, so track ids and record
        order are as if recorded live.  From the event log come
        ``engine.place``, ``io.move_done`` (a move's ``issued`` time is
        its decision's) and ``runner.read``: one span per request, from
        its first ``EV_READ``.  A request's records are contiguous and
        share ``pid`` and ``t0``, and a rank's next request starts after
        its last one ended, so a change of either starts a request.
        ``dhm.update`` repeats the ``auditor.fold`` records.
        ``read.latency_s`` and ``io.move_latency_s`` are folded from the
        whole log, before :meth:`SpanTracer.settle_cap` trims the views.
        """
        from repro.diagnosis.provenance import EV_DECISION, EV_MOVE_DONE, EV_READ

        tracer = self.tracer
        # the engine's track, the I/O clients' one per destination tier,
        # and the runner's one per rank
        views = {
            s.track: s
            for n in ("engine.place", "io.move_done", "runner.read")
            for s in tracer.named(n)
        }
        files = self.provenance.files
        issued: dict = {}
        request = None
        for ev in self.provenance.events:
            if ev[0] == EV_READ:
                if (ev[7], ev[8]) != request:
                    request = (ev[7], ev[8])
                    views[f"rank-{ev[7]}"].buf.extend(
                        (ev[8], ev[1], None, files.file_id_of(ev[2]), ev[9])
                    )
            elif ev[0] == EV_DECISION:
                issued[ev[2]] = ev[1]
                views["engine"].buf.extend((ev[1], ev[11], ev[8], ev[5]))
            elif ev[0] == EV_MOVE_DONE:
                views[f"io-{ev[5]}"].buf.extend(
                    (ev[1], ev[7], ev[4], ev[5], ev[6], issued[ev[2]])
                )
        h = self.registry.get("read.latency_s")
        for s in tracer.named("runner.read"):
            h.observe_many(e - t0 for t0, e in zip(s.buf[0::5], s.buf[1::5]))
        h = self.registry.get("io.move_latency_s")
        for s in tracer.named("io.move_done"):
            h.observe_many(ts - t0 for ts, t0 in zip(s.buf[0::6], s.buf[5::6]))
        for fold, dhm in zip(tracer.named("auditor.fold"), tracer.named("dhm.update")):
            dhm.buf.extend(chain.from_iterable(zip(fold.buf[0::3], fold.buf[1::3])))
            dhm.dropped += fold.dropped
            tracer.dropped += fold.dropped

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
        if dwell is not None and dwell.count:
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
        spans = len(self.tracer) if self.tracer is not None else 0
        return f"<Telemetry {self.label!r} bound={self.bound} spans={spans} metrics={len(self.registry)}>"
