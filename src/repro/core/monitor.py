"""The Hardware Monitor (paper §III-A.1).

Discovers the tiers of the hierarchy, keeps track of each tier's events,
and consumes the system-generated event queue with a pool of daemon
threads, passing file events on to the file segment auditor.  Events are
either file accesses or tier remaining-capacity reports.

The daemon pool is the measurable half of Fig. 3(a): with a fixed total
thread budget, more daemons mean more event-queue throughput (each event
costs ``EVENT_SERVICE_TIME`` of daemon work plus a short serialised
auditor critical section, which is why scaling is sub-linear).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.events.queue import EventQueue
from repro.events.types import CapacityEvent, FileEvent
from repro.sim.core import Environment, Interrupt, Process
from repro.sim.resources import Resource
from repro.storage.hierarchy import StorageHierarchy

__all__ = ["HardwareMonitor"]

#: Per-event processing cost of one daemon thread, seconds.  25 µs yields
#: the paper's >200K events/s with 6 daemons (Fig. 3(a)).
EVENT_SERVICE_TIME = 25e-6

#: Serialised auditor critical section per event (lock + map update),
#: seconds.  Limits daemon scaling sub-linearly, as observed.
AUDITOR_LOCK_TIME = 2e-6

#: Virtual seconds between two tier remaining-capacity reports.
CAPACITY_REPORT_INTERVAL = 1.0


class HardwareMonitor:
    """Daemon pool consuming the event queue into the auditor."""

    def __init__(
        self,
        env: Environment,
        config: HFetchConfig,
        queue: EventQueue,
        auditor: FileSegmentAuditor,
        hierarchy: Optional[StorageHierarchy] = None,
    ):
        self.env = env
        self.config = config
        self.queue = queue
        self.auditor = auditor
        self.hierarchy = hierarchy
        # The auditor's hash-map update is a short serialised section —
        # daemons contend on it, bounding their aggregate throughput.
        self._auditor_lock = Resource(env, capacity=1)
        self._daemons: list[Process] = []
        self._capacity_watcher: Optional[Process] = None
        self._running = False
        # tier free-space view maintained from capacity events
        self.tier_free: dict[str, float] = {}
        # instrumentation
        self.file_events = 0
        self.capacity_events = 0
        self.busy_time = 0.0
        # live telemetry handle, set by the server (None in normal runs)
        self.telemetry = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the daemon pool (and capacity watcher, if wired)."""
        if self._running:
            return
        self._running = True
        for i in range(self.config.daemon_threads):
            proc = self.env.process(self._daemon_loop(i), name=f"hm-daemon-{i}")
            self._daemons.append(proc)
        if self.hierarchy is not None:
            self._capacity_watcher = self.env.process(
                self._capacity_loop(), name="hm-capacity"
            )

    def stop(self) -> None:
        """Interrupt every daemon (used at workflow teardown)."""
        self._running = False
        for proc in self._daemons:
            if proc.is_alive:
                proc.interrupt("shutdown")
        self._daemons.clear()
        if self._capacity_watcher is not None and self._capacity_watcher.is_alive:
            self._capacity_watcher.interrupt("shutdown")
            self._capacity_watcher = None

    @property
    def running(self) -> bool:
        """Whether the pool is live."""
        return self._running

    # -- daemon loop -------------------------------------------------------
    def _daemon_loop(self, index: int) -> Generator:
        tel = self.telemetry
        service_mark = (
            tel.tracer.stream(
                "monitor.service", "monitor", f"hm-daemon-{index}", kind="span"
            ).append
            if tel is not None
            else None
        )
        # bound once: the loop runs once per queued event
        env = self.env
        timeout = env.timeout
        queue = self.queue
        pop = queue.pop
        lock = self._auditor_lock
        request = lock.request
        release = lock.release
        fold = self.auditor.on_events
        service_time = EVENT_SERVICE_TIME
        lock_time = AUDITOR_LOCK_TIME
        try:
            while True:
                get = pop()
                try:
                    event = yield get
                except Interrupt:
                    # withdraw the pending pop so the orphaned getter
                    # cannot swallow an event pushed after shutdown
                    queue.cancel(get)
                    raise
                start = env.now
                # per-event processing work on this daemon thread
                yield timeout(service_time)
                if isinstance(event, FileEvent):
                    # serialised hand-off to the auditor's shared state;
                    # leaving the section in any way (an interrupt while
                    # still queued included) gives the request back
                    req = request()
                    try:
                        yield req
                        yield timeout(lock_time)
                        fold((event,))
                        self.file_events += 1
                    finally:
                        release(req)
                elif isinstance(event, CapacityEvent):
                    self.tier_free[event.tier_name] = event.free_bytes
                    self.capacity_events += 1
                self.busy_time += env.now - start
                if service_mark is not None:
                    service_mark((start, env.now, getattr(event, "eid", None)))
        except Interrupt:
            return

    # -- capacity reporting ---------------------------------------------------
    def _capacity_loop(self) -> Generator:
        """Each tier periodically pushes its remaining capacity (§III-A.1)."""
        assert self.hierarchy is not None
        try:
            while True:
                yield self.env.timeout(CAPACITY_REPORT_INTERVAL)
                for tier in self.hierarchy.tiers:
                    self.queue.push(
                        CapacityEvent(
                            tier_name=tier.name,
                            free_bytes=tier.free,
                            timestamp=self.env.now,
                        )
                    )
        except Interrupt:
            return

    # -- metrics ------------------------------------------------------------------
    def consumption_rate(self) -> float:
        """Observed event-consumption rate (events per virtual second)."""
        return self.queue.consumption_rate()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<HardwareMonitor daemons={len(self._daemons)} "
            f"file={self.file_events} cap={self.capacity_events}>"
        )
