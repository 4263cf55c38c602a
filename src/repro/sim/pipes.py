"""Bandwidth-contended transfer modelling.

Every storage device and network link in the reproduction is represented
by a :class:`BandwidthPipe`: a device with a fixed access *latency*, a
per-channel *bandwidth*, and a bounded number of concurrent *channels*.

A transfer of ``nbytes`` costs::

    latency + nbytes / bandwidth          (once a channel is granted)

and transfers beyond the channel count queue FCFS — which is how real
devices behave under load: a 2-channel NVMe drive serving 64 readers
makes each reader wait for a slot, so the *observed* per-reader bandwidth
collapses, exactly the contention effect the HFetch paper's figures rely
on (e.g. Fig. 4(b): the in-memory-naive prefetcher and the application
threads "compete for access to PFS").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.sim.core import Environment, SimulationError
from repro.sim.resources import PriorityResource

__all__ = ["TransferStats", "BandwidthPipe"]


@dataclass
class TransferStats:
    """Aggregate counters for a pipe, used by the metrics layer."""

    transfers: int = 0
    bytes_moved: int = 0
    busy_time: float = 0.0
    wait_time: float = 0.0

    def merge(self, other: "TransferStats") -> None:
        """Accumulate another stats object into this one."""
        self.transfers += other.transfers
        self.bytes_moved += other.bytes_moved
        self.busy_time += other.busy_time
        self.wait_time += other.wait_time


class BandwidthPipe:
    """A latency + bandwidth + channels device model.

    Parameters
    ----------
    env:
        The simulation environment.
    latency:
        Fixed per-operation setup time in (virtual) seconds.
    bandwidth:
        Per-channel sustained bandwidth in bytes/second.
    channels:
        Number of transfers that can be serviced concurrently; additional
        requests queue FCFS.
    name:
        Diagnostic label (appears in metric dumps).
    """

    def __init__(
        self,
        env: Environment,
        latency: float,
        bandwidth: float,
        channels: int = 1,
        name: str = "pipe",
    ):
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        self.env = env
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.name = name
        self._channels = PriorityResource(env, capacity=max(1, int(channels)))
        self.stats = TransferStats()

    @property
    def channels(self) -> int:
        """Number of concurrent service channels."""
        return self._channels.capacity

    @property
    def in_flight(self) -> int:
        """Transfers currently holding a channel."""
        return self._channels.count

    @property
    def queued(self) -> int:
        """Transfers waiting for a channel."""
        return self._channels.queued

    def service_time(self, nbytes: int) -> float:
        """Uncontended duration of a transfer of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth

    #: priority class for prefetch/movement traffic: demand requests
    #: (priority 0) are always served first — a prefetcher must never
    #: delay the very reads it exists to accelerate
    PREFETCH = 1

    def transfer(self, nbytes: int, priority: int = 0) -> Generator:
        """A process generator moving ``nbytes`` through the pipe.

        ``priority`` 0 is a demand request; ``BandwidthPipe.PREFETCH``
        marks background movement, which queues behind demand traffic.

        Usage (inside another process)::

            yield from pipe.transfer(1 << 20)

        or as an independent process::

            env.process(pipe.transfer(1 << 20))
        """
        if nbytes < 0:
            raise SimulationError("cannot transfer a negative byte count")
        t0 = self.env.now
        req = self._channels.request(priority=priority)
        yield req
        waited = self.env.now - t0
        try:
            duration = self.service_time(int(nbytes))
            yield self.env.timeout(duration)
        finally:
            self._channels.release(req)
        self.stats.transfers += 1
        self.stats.bytes_moved += int(nbytes)
        self.stats.busy_time += duration
        self.stats.wait_time += waited
        return duration

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<BandwidthPipe {self.name} lat={self.latency:g}s "
            f"bw={self.bandwidth:g}B/s ch={self.channels}>"
        )
