"""Deterministic discrete-event simulation (DES) kernel.

This subpackage is the execution substrate for the whole HFetch
reproduction.  The paper evaluates HFetch on a real cluster (Ares, 64
compute nodes / 2560 MPI ranks); we reproduce the *behaviour* of that
testbed with a process-oriented discrete-event simulator in the style of
SimPy, built from scratch so the repository is self-contained:

* :class:`~repro.sim.core.Environment` — the event loop (a time-ordered
  heap of events) and the virtual clock.
* :class:`~repro.sim.core.Process` — generator-based coroutines; every
  simulated MPI rank, HFetch daemon thread, placement engine and I/O
  client is one of these.
* :class:`~repro.sim.resources.Resource` / :class:`~repro.sim.resources.Store`
  — FCFS contention primitives used to model shared hardware (device
  channels, event queues).
* :class:`~repro.sim.pipes.BandwidthPipe` — latency + size/bandwidth
  transfer cost with channel contention; the building block of every
  storage tier and network link.

Determinism: given the same seed and the same sequence of ``Environment``
operations the simulation is bit-reproducible.  Ties in the event heap are
broken by a monotonically increasing sequence number, never by object
identity.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.pipes import BandwidthPipe, TransferStats
from repro.sim.resources import PriorityResource, Resource, Store
from repro.sim.rng import SeededStream, split_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthPipe",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "SeededStream",
    "SimulationError",
    "Store",
    "Timeout",
    "TransferStats",
    "split_seed",
]
