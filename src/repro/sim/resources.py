"""Contention primitives for the DES kernel.

These model shared hardware and software resources:

* :class:`Resource` — a counted resource (device channels, the monitor's
  auditor lock) with two request classes: demand (priority 0) is served
  before prefetch (``Resource.PREFETCH``), FIFO within each.
* :class:`Store` — an unbounded FIFO of items (the HFetch event queue
  between the inotify producers and the hardware-monitor daemons, and
  the I/O clients' instruction queues).  Producers ``offer`` items
  without blocking; consumers ``get`` them.

All primitives are fair and deterministic: waiters are served in the order
they asked, within their class.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any

from repro.sim.core import NORMAL, Environment, Event, SimulationError

__all__ = [
    "Resource",
    "Store",
]


class _Request(Event):
    """Event granted when the resource has a free slot.

    Construction is flattened like :class:`~repro.sim.core.Timeout`'s
    (no ``super().__init__`` call).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource

    # Support ``with res.request() as req: yield req``
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with ``capacity`` concurrent slots and two
    request classes, FIFO within each: demand (priority 0) is always
    served before prefetch (``PREFETCH``)."""

    #: priority of prefetch/movement requests (``BandwidthPipe.PREFETCH``)
    PREFETCH = 1

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.users: list[_Request] = []
        #: queued requests of each class
        self.demand: deque[_Request] = deque()
        self.prefetch: deque[_Request] = deque()

    # -- public API ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.demand) + len(self.prefetch)

    def request(self, priority: int = 0) -> _Request:
        """Ask for a slot; yields (fires) once granted.

        ``priority`` is 0 (demand) or :attr:`PREFETCH`.
        """
        if priority == 0:
            queue = self.demand
        elif priority == self.PREFETCH:
            queue = self.prefetch
        else:
            raise ValueError(
                f"priority must be 0 (demand) or {self.PREFETCH} (prefetch), "
                f"got {priority!r}"
            )
        req = _Request(self)
        users = self.users
        if len(users) < self.capacity:
            # uncontended: granted now, by ``req.succeed(req)`` inlined
            # (now, normal priority, next eid)
            users.append(req)
            req._triggered = True
            req._value = req
            env = self.env
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, req))
        else:
            queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        """Return a slot (or cancel a queued request)."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a request that was never granted cancels it (a
            # no-op for one this resource lacks).
            for queue in (self.demand, self.prefetch):
                if request in queue:
                    queue.remove(request)
                    break
            return
        # a grant's value is the request itself: drop that self-reference
        # so a released request is freed at once, not left to the cyclic GC
        request._value = None
        self._dispatch()

    # -- internals -------------------------------------------------------
    def _dispatch(self) -> None:
        users, demand, prefetch = self.users, self.demand, self.prefetch
        while len(users) < self.capacity:
            if demand:
                req = demand.popleft()
            elif prefetch:
                req = prefetch.popleft()
            else:
                break
            users.append(req)
            req.succeed(req)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Resource {self.count}/{self.capacity} used, {self.queued} queued>"


class _StoreGet(Event):
    __slots__ = ()


class Store:
    """An unbounded FIFO of items.

    Producers :meth:`offer` items without blocking; :meth:`get` blocks
    while the store is empty.  This is the HFetch server's in-memory
    event queue (paper §III-A.1): inotify producers ``offer`` file
    events, hardware-monitor daemons ``get`` them.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[_StoreGet] = deque()
        #: high-water mark of the buffer
        self.max_level = 0

    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    def offer(self, item: Any) -> None:
        """Buffer ``item`` now, or hand it to the oldest waiting getter."""
        items = self.items
        items.append(item)
        if len(items) > self.max_level:
            self.max_level = len(items)
        getters = self._getters
        if getters:
            # a waiting getter means the buffer was empty: hand over,
            # by ``get.succeed(item)`` inlined
            get = getters.popleft()
            get._triggered = True
            get._value = items.popleft()
            env = self.env
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, get))

    def get(self) -> _StoreGet:
        """Ask for the next item; the returned event fires with the item."""
        env = self.env
        ev = _StoreGet(env)
        items = self.items
        if items:
            # buffered, so no getter waits ahead: take it directly, by
            # ``ev.succeed(item)`` inlined
            ev._triggered = True
            ev._value = items.popleft()
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, ev))
        else:
            self._getters.append(ev)
        return ev

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending ``get`` that has not fired yet.

        A consumer that is interrupted while waiting on :meth:`get` must
        cancel the returned event — otherwise the orphaned getter stays
        queued and a later ``offer`` feeds it, silently losing the item.
        Returns True when the event was still queued.
        """
        try:
            self._getters.remove(event)  # type: ignore[arg-type]
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Store level={self.level}>"
