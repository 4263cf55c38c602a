"""Contention primitives for the DES kernel.

These model shared hardware and software resources:

* :class:`Resource` — a counted FCFS resource (device channels, CPU
  threads).  Requests queue in arrival order.
* :class:`PriorityResource` — like :class:`Resource` but requests carry a
  priority (lower value served first; FIFO within a priority).
* :class:`Store` — an unbounded-or-bounded FIFO of items (the HFetch event
  queue between the inotify producers and the hardware-monitor daemons).

All primitives are fair and deterministic: waiters are served in the order
they asked.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any

from repro.sim.core import NORMAL, Environment, Event, SimulationError

__all__ = [
    "Resource",
    "PriorityResource",
    "Store",
]


class _Request(Event):
    """Event granted when the resource has a free slot.

    Construction is flattened like :class:`~repro.sim.core.Timeout`'s
    (no ``super().__init__`` call); ``t0`` keeps the request time so a
    queued request's wait is known when it is granted.
    """

    __slots__ = ("resource", "t0")

    def __init__(self, resource: "Resource"):
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource
        self.t0 = env._now

    # Support ``with res.request() as req: yield req``
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A counted FCFS resource with ``capacity`` concurrent slots."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.users: list[_Request] = []
        self.queue: deque[_Request] = deque()
        # instrumentation
        self.total_requests = 0
        self.total_wait_time = 0.0

    # -- public API ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    def request(self) -> _Request:
        """Ask for a slot; yields (fires) once granted."""
        req = _Request(self)
        self.total_requests += 1
        users = self.users
        if len(users) < self.capacity:
            # uncontended: granted now with no wait to account, by
            # ``req.succeed(req)`` inlined (now, normal priority, next eid)
            users.append(req)
            req._triggered = True
            req._value = req
            env = self.env
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, req))
        else:
            self.queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        """Return a slot (or cancel a queued request)."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a request that was never granted cancels it.
            try:
                self.queue.remove(request)
            except ValueError:
                pass
            return
        # a grant's value is the request itself: drop that self-reference
        # so a released request is freed at once, not left to the cyclic GC
        request._value = None
        self._dispatch()

    # -- internals -------------------------------------------------------
    def _grant(self, req: _Request) -> None:
        """Grant a queued request, accounting how long it waited."""
        self.users.append(req)
        self.total_wait_time += self.env._now - req.t0
        req.succeed(req)

    def _dispatch(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            self._grant(self.queue.popleft())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Resource {self.count}/{self.capacity} used, {self.queued} queued>"


class _PriorityRequest(_Request):
    __slots__ = ("priority", "seq")

    def __init__(self, resource: "PriorityResource", priority: float, seq: int):
        _Request.__init__(self, resource)
        self.priority = priority
        self.seq = seq

    def __lt__(self, other: "_PriorityRequest") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._heap: list[_PriorityRequest] = []
        self._seq = 0

    @property
    def queued(self) -> int:
        return len(self._heap)

    def request(self, priority: float = 0.0) -> _PriorityRequest:  # type: ignore[override]
        self._seq += 1
        req = _PriorityRequest(self, priority, self._seq)
        self.total_requests += 1
        users = self.users
        if len(users) < self.capacity:
            users.append(req)
            req._triggered = True
            req._value = req
            env = self.env
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, req))
        else:
            heapq.heappush(self._heap, req)
        return req

    def release(self, request: _Request) -> None:  # type: ignore[override]
        try:
            self.users.remove(request)
        except ValueError:
            try:
                self._heap.remove(request)  # type: ignore[arg-type]
                heapq.heapify(self._heap)
            except ValueError:
                pass
            return
        request._value = None  # no self-reference left (see Resource.release)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._heap and len(self.users) < self.capacity:
            self._grant(heapq.heappop(self._heap))


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any):
        super().__init__(env)
        self.item = item


class _StoreGet(Event):
    __slots__ = ()


class Store:
    """A FIFO of items with optional bounded capacity.

    ``put`` blocks when the store is full; ``get`` blocks when empty.
    This is the HFetch server's in-memory event queue (paper §III-A.1):
    inotify producers ``offer`` file events, hardware-monitor daemons
    ``get`` them.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._putters: deque[_StorePut] = deque()
        self._getters: deque[_StoreGet] = deque()
        # instrumentation
        self.total_put = 0
        self.total_got = 0
        self.max_level = 0

    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    def put(self, item: Any) -> _StorePut:
        """Offer ``item``; the returned event fires once accepted."""
        ev = _StorePut(self.env, item)
        self._putters.append(ev)
        self._balance()
        return ev

    def offer(self, item: Any) -> None:
        """Buffer ``item`` now, without blocking and without a put event.

        The non-blocking form of :meth:`put` for producers that never
        wait on the put: the item goes straight to the oldest waiting
        getter, exactly as a put would hand it over, but no put event
        is scheduled.  Raises :class:`SimulationError` when the store
        is full or has blocked putters (the item could not be accepted
        now).
        """
        items = self.items
        if self._putters or len(items) >= self.capacity:
            raise SimulationError(f"offer to a full store ({len(items)}/{self.capacity})")
        items.append(item)
        self.total_put += 1
        if len(items) > self.max_level:
            self.max_level = len(items)
        getters = self._getters
        if getters:
            # a waiting getter means the buffer was empty: hand over,
            # by ``get.succeed(item)`` inlined
            get = getters.popleft()
            get._triggered = True
            get._value = items.popleft()
            self.total_got += 1
            env = self.env
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, get))

    def get(self) -> _StoreGet:
        """Ask for the next item; the returned event fires with the item."""
        env = self.env
        ev = _StoreGet(env)
        items = self.items
        if items and not self._getters:
            # buffered and nobody queued ahead: take it directly, by
            # ``ev.succeed(item)`` inlined
            ev._triggered = True
            ev._value = items.popleft()
            self.total_got += 1
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, NORMAL, eid, ev))
            if self._putters:
                self._balance()
        else:
            self._getters.append(ev)
            self._balance()
        return ev

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending ``get``/``put`` that has not fired yet.

        A consumer that is interrupted while waiting on :meth:`get` must
        cancel the returned event — otherwise the orphaned getter stays
        queued and a later ``put`` feeds it, silently losing the item.
        Returns True when the event was still queued.
        """
        for queue in (self._getters, self._putters):
            try:
                queue.remove(event)  # type: ignore[arg-type]
                return True
            except ValueError:
                continue
        return False

    def _balance(self) -> None:
        progress = True
        while progress:
            progress = False
            # Accept queued puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                self.total_put += 1
                if len(self.items) > self.max_level:
                    self.max_level = len(self.items)
                put.succeed()
                progress = True
            # Satisfy queued gets while there are items.
            while self._getters and self.items:
                get = self._getters.popleft()
                item = self.items.popleft()
                self.total_got += 1
                get.succeed(item)
                progress = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Store level={self.level}/{self.capacity}>"
