"""Per-layer wall-clock attribution, recorded from outside the program.

:class:`LayerTracer` times calls into each layer's public functions and
every generator handed to ``Environment.process``.  It installs its
wrappers on the classes (so components built while it is installed pick
them up, including any bound methods they cache) and removes them on
exit; the simulator's own code is never edited.

Spans nest on one stack: a span's *self* time is its duration minus the
durations of the spans opened inside it, so the self times of all spans
add up to the time covered by top-level spans.  Whatever the traced wall
time does not cover is the DES kernel's own dispatch (heap, callbacks,
``Condition`` bookkeeping), reported as the ``sim`` layer's residual.

Generator wrappers drop their reference to a yielded event as soon as
the process resumes: ``Environment.run`` recycles a fired ``Timeout``
only when its reference count proves nobody else holds it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Generator, Optional

from repro.core.agents import AgentManager
from repro.core.auditor import FileSegmentAuditor
from repro.core.io_clients import IOClientPool
from repro.core.placement import PlacementEngine
from repro.core.prefetcher import HFetchPrefetcher
from repro.events.inotify import SimInotify
from repro.events.queue import EventQueue
from repro.sim.core import Environment
from repro.telemetry.handle import Telemetry
from repro.workloads.spec import WorkloadSpec

__all__ = ["LayerTracer", "process_family"]

#: (class, method, span name) for every wrapped public function.
CALL_SPANS = (
    (FileSegmentAuditor, "on_event", "auditor.fold"),
    (FileSegmentAuditor, "on_events", "auditor.fold"),
    (FileSegmentAuditor, "stats_of", "auditor.stats_of"),
    (FileSegmentAuditor, "batch_score", "auditor.batch_score"),
    (SimInotify, "emit", "events.emit"),
    (EventQueue, "push", "events.emit"),
    (AgentManager, "locate", "agents.locate"),
    (IOClientPool, "submit", "io.submit"),
    (HFetchPrefetcher, "plan_read", "agents.plan_read"),
    (HFetchPrefetcher, "on_access", "agents.on_access"),
    (HFetchPrefetcher, "attach", "setup.materialize"),
    (WorkloadSpec, "materialize", "setup.materialize"),
    (Telemetry, "diagnosis_report", "diagnosis.derive"),
)

#: process-name prefixes binned into one family each
_FAMILIES = ("rank-", "hm-daemon-", "ioclient-", "app-", "client-", "fabric-")


def process_family(name: str) -> str:
    """``rank-17`` → ``rank``; names outside the known families pass through."""
    for prefix in _FAMILIES:
        if name.startswith(prefix):
            return prefix[:-1]
    return name


class LayerTracer:
    """Span recorder; use as a context manager around build *and* run."""

    def __init__(self) -> None:
        #: span name -> accumulated self seconds
        self.self_s: dict[str, float] = defaultdict(float)
        #: span name -> number of spans closed (calls, or process resumes)
        self.calls: dict[str, int] = defaultdict(int)
        #: seconds covered by top-level spans
        self.attributed_s = 0.0
        #: host milliseconds of each placement pass that placed anything
        self.pass_ms: list[float] = []
        # one entry per open span: seconds its child spans covered so far
        self._stack: list[float] = []
        self._saved: list[tuple[type, str, object]] = []

    # -- spans -------------------------------------------------------------------
    def _close(self, name: str, duration: float) -> None:
        stack = self._stack
        child = stack.pop()
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if stack:
            stack[-1] += duration
        else:
            self.attributed_s += duration

    def wrap_call(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, perf_counter() - t0)

        return traced

    def wrap_generator(
        self,
        gen: Generator,
        name: str,
        on_finish: Optional[Callable[[float], None]] = None,
    ) -> Generator:
        """Drive ``gen``, recording each resume as a ``name`` span.

        ``on_finish`` receives the generator's inclusive host seconds
        summed over all its resumes, once it returns.
        """
        stack = self._stack
        close = self._close
        send = gen.send
        throw = gen.throw
        value = None
        error: Optional[BaseException] = None
        inclusive = 0.0
        while True:
            stack.append(0.0)
            t0 = perf_counter()
            try:
                event = send(value) if error is None else throw(error)
            except StopIteration as stop:
                dt = perf_counter() - t0
                close(name, dt)
                if on_finish is not None:
                    on_finish(inclusive + dt)
                return stop.value
            except BaseException:
                close(name, perf_counter() - t0)
                raise
            dt = perf_counter() - t0
            close(name, dt)
            inclusive += dt
            value = error = None
            try:
                value = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel: forward it
                error = exc
            # the kernel may recycle the fired event once we resume
            event = None

    # -- installation --------------------------------------------------------------
    def _patch(self, cls: type, attr: str, replacement: object) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        for cls, attr, name in CALL_SPANS:
            self._patch(cls, attr, self.wrap_call(cls.__dict__[attr], name))

        tracer = self
        spawn = Environment.process

        def process(env, generator, name=None):
            name = name or getattr(generator, "__name__", "process")
            wrapped = tracer.wrap_generator(generator, "proc." + process_family(name))
            return spawn(env, wrapped, name=name)

        run_pass = PlacementEngine.run_pass

        def traced_pass(engine):
            before = engine.passes

            def finished(seconds: float) -> None:
                if engine.passes > before:
                    tracer.pass_ms.append(seconds * 1e3)

            return tracer.wrap_generator(run_pass(engine), "placement.pass", finished)

        self._patch(Environment, "process", process)
        self._patch(PlacementEngine, "run_pass", traced_pass)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    # -- results -------------------------------------------------------------------
    def span_seconds(self, *names: str) -> float:
        """Summed self seconds of the named spans."""
        return sum(self.self_s.get(n, 0.0) for n in names)
