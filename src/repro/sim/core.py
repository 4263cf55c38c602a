"""Core of the discrete-event simulation kernel.

The design follows the classic process-interaction style (SimPy, OMNeT++):
an :class:`Environment` owns a heap of scheduled :class:`Event` objects and
a virtual clock; :class:`Process` objects are Python generators that
``yield`` events and are resumed when those events fire.

Only virtual time exists here — nothing sleeps, and a simulation of a
thousand seconds of cluster activity completes in milliseconds of wall
time.  The kernel is deliberately small and fully deterministic; all
policy (storage tiers, prefetchers, workloads) lives in higher layers.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Environment",
]


class SimulationError(Exception):
    """Raised for misuse of the kernel (double triggers, bad yields...)."""


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent bookkeeping events (process resumption).
URGENT = 0

# Timeout recycling relies on CPython reference counts to prove that no
# user code can still observe a fired Timeout before it is returned to the
# environment's pool.  ``_SOLO_REFS`` is the count reported for an object
# held by exactly one local variable; on interpreters without
# ``sys.getrefcount`` (PyPy) pooling is simply disabled.
_getrefcount = getattr(sys, "getrefcount", None)
if _getrefcount is not None:
    _probe = object()
    _SOLO_REFS = _getrefcount(_probe)
    del _probe
else:  # pragma: no cover - non-CPython fallback
    _SOLO_REFS = -1

#: Upper bound on pooled Timeout objects per environment.
_TIMEOUT_POOL_MAX = 1024


class Event:
    """A happening at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it on the environment's heap.  When the environment pops it,
    the event becomes *processed* and its callbacks run.  Processes add
    themselves as callbacks when they ``yield`` an event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (succeed/fail called)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the exception, if it failed)."""
        if not self._triggered:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=delay)
        return self

    # -- internal ------------------------------------------------------
    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:  # type: ignore[union-attr]
            cb(self)
        if not self._ok and not self._defused:
            # A failed event nobody waited on: surface the error loudly
            # instead of losing it, mirroring SimPy semantics.
            raise self._value  # type: ignore[misc]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time after creation.

    Timeouts are the single most common event class, so construction is
    flattened (no ``super().__init__`` / ``_schedule`` calls) and fired
    instances are recycled through the environment's pool when reference
    counting proves nobody can still observe them.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Flattened Event.__init__ + scheduling: a timeout is born
        # triggered, so the generic two-step dance is pure overhead.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, NORMAL, eid, self))


class Initialize(Event):
    """Internal event that kicks a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume_cb)  # type: ignore[union-attr]
        self._triggered = True
        self._value = None
        env._schedule(self, priority=URGENT)


class Process(Event):
    """A generator-based simulated thread of control.

    The generator yields :class:`Event` objects; the process sleeps until
    the yielded event fires, then resumes with the event's value (or with
    the exception thrown into it if the event failed).  The process object
    is itself an event that fires when the generator returns — so processes
    can wait for each other simply by yielding them.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method for every wait: ``self._resume`` creates a fresh
        # bound-method object per attribute access, which the old
        # ``callbacks.append(self._resume)`` paid on every suspension.
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"{self.name} has terminated and cannot be interrupted")
        if self._target is self:
            raise SimulationError("a process is not allowed to interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._triggered = True
        event.callbacks.append(self._resume_cb)  # type: ignore[union-attr]
        self.env._schedule(event, priority=URGENT)
        # Detach from the event we were waiting on so its normal firing
        # does not resume us a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

    # -- driving -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Release the event that woke us: after this point it is history,
        # and dropping the reference lets fired Timeouts be recycled.
        self._target = None
        gen = self._generator
        while True:
            try:
                if event._ok:
                    result = gen.send(event._value)
                else:
                    event._defused = True
                    result = gen.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                break
            if result.__class__ is not Timeout and not isinstance(result, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {result!r}"
                )
                try:
                    gen.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    break
                raise exc
            if result._processed:
                # Already fired: resume immediately with its value.
                event = result
                continue
            self._target = result
            result.callbacks.append(self._resume_cb)  # type: ignore[union-attr]
            break

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'dead' if self._triggered else 'alive'}>"


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)  # type: ignore[union-attr]

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Fires once every constituent event has fired successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class AnyOf(Condition):
    """Fires as soon as any constituent event fires successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Environment:
    """The simulation event loop and virtual clock.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(1.5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.5 and proc.value == "done"
    """

    __slots__ = ("_now", "_queue", "_eid", "_timeout_pool")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        # Recycled Timeout objects (see Timeout): avoids one allocation
        # plus full re-initialisation per timeout in steady state.
        self._timeout_pool: list[Timeout] = []

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` units of virtual time."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay!r}")
            t = pool.pop()
            # callbacks is already an empty list (run() restores it on
            # recycle) and _ok/_defused still hold True/False: a timeout
            # is born triggered-ok and only failed events get defused.
            t._value = value
            t._processed = False
            t.delay = delay
            self._eid = eid = self._eid + 1
            heappush(self._queue, (self._now + delay, NORMAL, eid, t))
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new simulated process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events`` (see :class:`AllOf`)."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: any of ``events`` (see :class:`AnyOf`)."""
        return AnyOf(self, events)

    # -- scheduling & running --------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advance the clock to it).

        Fired timeouts are recycled as :meth:`run` recycles them: drain
        loops step through many events one call at a time.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _eid, event = heappop(queue)
        self._now = when
        event._run_callbacks()
        if (
            event.__class__ is Timeout
            and _getrefcount is not None
            and _getrefcount(event) == _SOLO_REFS
            and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
        ):
            event.callbacks = []
            self._timeout_pool.append(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run until
        the clock reaches it), or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event._processed:
                return stop_event._value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until ({stop_time}) must not be earlier than now ({self._now})"
                )

        # The hot loop inlines step() onto local variables: attribute and
        # method-lookup overhead here is paid once per simulated event.
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        refcount = _getrefcount
        solo = _SOLO_REFS
        pool_max = _TIMEOUT_POOL_MAX
        timeout_cls = Timeout
        while queue:
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _prio, _eid, event = pop(queue)
            self._now = when
            # Event._run_callbacks, inlined (same order: callbacks first,
            # then the unhandled-failure check).
            event._processed = True
            callbacks = event.callbacks
            event.callbacks = None
            for cb in callbacks:  # type: ignore[union-attr]
                cb(event)
            if not event._ok and not event._defused:
                raise event._value  # type: ignore[misc]
            if (
                event.__class__ is timeout_cls
                and refcount is not None
                and refcount(event) == solo
                and len(pool) < pool_max
            ):
                # Nothing but this frame can see the fired timeout:
                # recycle it, handing back its (cleared) callbacks list
                # so timeout() need not allocate a fresh one.
                callbacks.clear()  # type: ignore[union-attr]
                event.callbacks = callbacks
                pool.append(event)
            if stop_event is not None and stop_event._processed:
                if not stop_event._ok:
                    raise stop_event._value  # type: ignore[misc]
                return stop_event._value

        if stop_event is not None:
            raise SimulationError("run(until=event): schedule exhausted before event fired")
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment now={self._now} pending={len(self._queue)}>"
