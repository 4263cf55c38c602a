"""The bounded in-memory event queue of the HFetch server.

Producers (the file-system layer / :class:`~repro.events.inotify.SimInotify`)
push events; the hardware monitor's daemon pool consumes them.  The queue
is a thin instrumented wrapper over :class:`repro.sim.resources.Store`
that adds the drop-on-overflow policy real event subsystems have
(``inotify`` drops events and sets ``IN_Q_OVERFLOW`` when its kernel
buffer fills) plus the counters Fig. 3(a) is measured from.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.core import Environment, Event
from repro.sim.resources import Store

__all__ = ["EVENT_QUEUE_CAPACITY", "EventQueue"]

#: Default capacity: events buffered before pushes are dropped (also
#: the default of ``HFetchConfig.event_queue_capacity``).
EVENT_QUEUE_CAPACITY = 1 << 16


class EventQueue:
    """Bounded event queue with non-blocking producers.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Maximum buffered events; pushes beyond it are *dropped* (counted
        in :attr:`dropped`), matching kernel event-queue semantics — a
        slow consumer must never stall the file system.
    """

    def __init__(self, env: Environment, capacity: int = EVENT_QUEUE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._store = Store(env)
        #: optional chaos filter (:class:`repro.faults.injector.EventChaos`)
        #: mapping each offered event to the list actually enqueued; None
        #: in normal runs (zero overhead)
        self.chaos: Optional[Any] = None
        self.produced = 0
        self.consumed = 0
        self.dropped = 0
        self._first_push: Optional[float] = None
        self._last_pop: Optional[float] = None
        # telemetry (None in normal runs: zero overhead)
        self.telemetry: Optional[Any] = None
        self._h_dwell: Optional[Any] = None
        self._pop_mark: Optional[Any] = None
        self._drop_mark: Optional[Any] = None

    def bind_telemetry(self, tel) -> None:
        """Open the queue's trace streams on a live telemetry handle.

        The dwell histogram is folded from the trace at end of run: an
        event's dwell is exactly the gap between its ``fs.emit`` and
        ``queue.pop`` marks (both already recorded for flow tracing),
        so the pop hot path pays nothing for it.
        """
        self.telemetry = tel
        self._pop_mark = tel.tracer.stream("queue.pop", "events", "queue").append
        self._drop_mark = tel.tracer.stream("queue.drop", "events", "queue").append
        self._h_dwell = tel.registry.histogram("queue.dwell_s")

        def _fold_dwell() -> None:
            for dt in tel.tracer.flow_latencies("fs.emit", "queue.pop").values():
                self._h_dwell.observe(dt)

        tel.add_finalizer(_fold_dwell)

    # -- producer side -------------------------------------------------------
    def push(self, event: Any) -> bool:
        """Offer an event without blocking; False when dropped (full)."""
        if self.chaos is not None:
            delivered = False
            for ev in self.chaos.filter(event, self.env.now):
                delivered = self._push_one(ev) or delivered
            return delivered
        return self._push_one(event)

    def _push_one(self, event: Any) -> bool:
        store = self._store
        if len(store.items) >= self.capacity:
            self.dropped += 1
            mark = self._drop_mark
            if mark is not None:
                eid = getattr(event, "eid", None)
                if eid is not None:
                    mark((self.env.now, eid))
            return False
        store.offer(event)
        self.produced += 1
        if self._first_push is None:
            self._first_push = self.env.now
        return True

    # -- consumer side -------------------------------------------------------
    def pop(self) -> Event:
        """Simulation event that fires with the next queued item."""
        get = self._store.get()
        get.callbacks.append(self._on_pop)  # type: ignore[union-attr]
        return get

    def _on_pop(self, _event: Event) -> None:
        self.consumed += 1
        self._last_pop = self.env.now
        mark = self._pop_mark
        if mark is not None:
            # the pop instant per consumed event; dwell is derived from
            # this mark and ``fs.emit`` at end of run
            eid = getattr(_event.value, "eid", None)
            if eid is not None:
                mark((self.env.now, eid))

    def cancel(self, get: Event) -> bool:
        """Withdraw a pending :meth:`pop` that has not fired.

        Consumers interrupted while waiting must cancel, or the orphaned
        getter would swallow (and lose) the next pushed event.
        """
        return self._store.cancel(get)

    # -- introspection ---------------------------------------------------------
    @property
    def level(self) -> int:
        """Events currently buffered."""
        return self._store.level

    @property
    def max_level(self) -> int:
        """High-water mark of the buffer."""
        return self._store.max_level

    def consumption_rate(self) -> float:
        """Consumed events per virtual second (Fig. 3(a) metric)."""
        if self._first_push is None or self._last_pop is None:
            return 0.0
        elapsed = self._last_pop - self._first_push
        return self.consumed / elapsed if elapsed > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<EventQueue level={self.level}/{self.capacity} "
            f"produced={self.produced} consumed={self.consumed} dropped={self.dropped}>"
        )
