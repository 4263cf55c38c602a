"""The simulated (enriched) inotify subsystem.

Models the VFS-level event capture HFetch relies on (paper §III-B):

* *Watches* are installed per file.  The paper's refcount rule is
  implemented exactly: when multiple ``fopen`` calls arrive from
  different processes or applications, "only the first will install the
  watch and the last one will remove it".
* Any access to a watched file produces an enriched
  :class:`~repro.events.types.FileEvent` (offset, size, timestamp) which
  is fanned out to every subscribed :class:`~repro.events.queue.EventQueue`.
* Accesses to unwatched files produce nothing — HFetch only monitors
  files opened by applications that link to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.events.queue import EventQueue
from repro.events.types import EventType, FileEvent
from repro.sim.core import Environment

__all__ = ["Watch", "SimInotify"]


@dataclass
class Watch:
    """One installed watch with its opener refcount."""

    file_id: str
    refcount: int = 0
    installed_at: float = 0.0
    events_seen: int = 0


class SimInotify:
    """Watch registry + event fan-out for the simulated file system."""

    def __init__(self, env: Environment):
        self.env = env
        self._watches: dict[str, Watch] = {}
        self._queues: list[EventQueue] = []
        # instrumentation
        self.watches_installed = 0
        self.watches_removed = 0
        self.events_emitted = 0
        self.events_suppressed = 0  # accesses on unwatched files
        #: live telemetry handle or None (normal runs: zero overhead)
        self.telemetry: Any = None
        self._emit_mark: Any = None

    def bind_telemetry(self, tel) -> None:
        """Open the ``fs.emit`` trace stream on a live telemetry handle."""
        self.telemetry = tel
        self._emit_mark = tel.tracer.stream(
            "fs.emit", "events", "inotify", fields=("etype", "file")
        ).append

    # -- subscription -----------------------------------------------------
    def subscribe(self, queue: EventQueue) -> None:
        """Register an event queue to receive every emitted event."""
        if queue not in self._queues:
            self._queues.append(queue)

    # -- watch management (paper: inotify_add_watch / inotify_rm_watch) -----
    def add_watch(self, file_id: str) -> Watch:
        """Install (or refcount-bump) a watch on ``file_id``."""
        watch = self._watches.get(file_id)
        if watch is None:
            watch = Watch(file_id=file_id, refcount=0, installed_at=self.env.now)
            self._watches[file_id] = watch
            self.watches_installed += 1
        watch.refcount += 1
        return watch

    def rm_watch(self, file_id: str) -> bool:
        """Drop one reference; the watch disappears at refcount zero.

        Returns True when the watch was actually removed.
        """
        watch = self._watches.get(file_id)
        if watch is None:
            return False
        watch.refcount -= 1
        if watch.refcount <= 0:
            del self._watches[file_id]
            self.watches_removed += 1
            return True
        return False

    @property
    def active_watches(self) -> int:
        """Number of currently installed watches."""
        return len(self._watches)

    # -- event emission -------------------------------------------------------
    def emit(
        self,
        etype: EventType,
        file_id: str,
        offset: int = 0,
        size: int = 0,
        node: int = 0,
        pid: int = 0,
    ) -> FileEvent | None:
        """Produce an enriched event if ``file_id`` is watched.

        Returns the event (also fanned out to subscribers) or None when
        the file is unwatched.
        """
        watch = self._watches.get(file_id)
        if watch is None:
            self.events_suppressed += 1
            return None
        event = FileEvent(
            etype=etype,
            file_id=file_id,
            offset=offset,
            size=size,
            timestamp=self.env.now,
            node=node,
            pid=pid,
        )
        watch.events_seen += 1
        self.events_emitted += 1
        for queue in self._queues:
            queue.push(event)
        mark = self._emit_mark
        if mark is not None:
            mark((event.timestamp, event.eid, etype.value, file_id))
        return event

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SimInotify watches={self.active_watches} "
            f"emitted={self.events_emitted} suppressed={self.events_suppressed}>"
        )
