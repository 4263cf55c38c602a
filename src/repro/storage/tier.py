"""A single tier of the storage hierarchy.

A :class:`StorageTier` couples a capacity ledger (which segments live
here, how many bytes are used) with a contended device model
(:class:`~repro.sim.pipes.BandwidthPipe`).  Reads and writes are
simulation processes that queue for the device's channels; residency
bookkeeping is synchronous and always consistent.

The tier keeps no scores: Algorithm 1's per-tier minimum score is read
from the placement engine's per-tier heap of resident scores.
"""

from __future__ import annotations

import enum
from typing import Generator, Iterable

from repro.sim.core import Environment
from repro.sim.pipes import BandwidthPipe
from repro.storage.devices import DeviceProfile

__all__ = ["StorageTier", "TierHealth"]


class TierHealth(enum.Enum):
    """Health state of a tier's device.

    FAILED tiers advertise zero free capacity and reject admissions
    (the fault injector drains and re-homes them through
    ``PlacementEngine.on_tier_failed``; the hardware monitor's capacity
    events only update its ``tier_free`` view); DEGRADED tiers stay
    usable but serve I/O slower by a multiplicative factor.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"

    def __str__(self) -> str:
        return self.value


class StorageTier:
    """One tier of the DMSH: a device model plus a residency ledger."""

    def __init__(
        self,
        env: Environment,
        profile: DeviceProfile,
        capacity: float,
        name: str | None = None,
    ):
        if capacity <= 0:
            raise ValueError(f"tier capacity must be positive, got {capacity}")
        self.env = env
        self.profile = profile
        self.capacity = capacity
        self.name = name or profile.name
        self.pipe = BandwidthPipe(
            env,
            latency=profile.latency,
            bandwidth=profile.bandwidth,
            channels=profile.channels,
            name=self.name,
        )
        self._resident: dict[int, int] = {}
        self._used = 0
        # health state (driven by the fault injector; HEALTHY in normal runs)
        self.health = TierHealth.HEALTHY
        self.slowdown = 1.0
        # instrumentation
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.peak_used = 0
        self.failures = 0
        self.recoveries = 0

    # -- residency ledger -------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently resident."""
        return self._used

    @property
    def free(self) -> float:
        """Bytes of remaining capacity (0 while the tier is failed)."""
        if self.health is TierHealth.FAILED:
            return 0.0
        return self.capacity - self._used

    @property
    def available(self) -> bool:
        """Whether the tier can serve I/O and accept placements."""
        return self.health is not TierHealth.FAILED

    @property
    def resident_count(self) -> int:
        """Number of resident segments."""
        return len(self._resident)

    def has(self, key: int) -> bool:
        """Whether ``key`` is resident on this tier."""
        return key in self._resident

    def resident_keys(self) -> Iterable[int]:
        """Iterate over resident segment keys (insertion order)."""
        return self._resident.keys()

    def size_of(self, key: int) -> int:
        """Resident byte size of ``key`` (KeyError if absent)."""
        return self._resident[key]

    def can_fit(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more would fit right now."""
        if self.health is TierHealth.FAILED:
            return False
        return self._used + nbytes <= self.capacity

    def admit(self, key: int, nbytes: int) -> None:
        """Record ``key`` as resident (capacity-checked)."""
        if key in self._resident:
            raise ValueError(f"{key} is already resident on {self.name}")
        if nbytes < 0:
            raise ValueError("segment size must be non-negative")
        if not self.can_fit(nbytes):
            raise ValueError(
                f"{self.name} over capacity: used={self._used} + {nbytes} > {self.capacity}"
            )
        self._resident[key] = nbytes
        self._used += nbytes
        if self._used > self.peak_used:
            self.peak_used = self._used

    def drop(self, key: int) -> int:
        """Remove ``key`` from the ledger, returning its size."""
        try:
            nbytes = self._resident.pop(key)
        except KeyError:
            raise KeyError(f"{key} is not resident on {self.name}") from None
        self._used -= nbytes
        return nbytes

    # -- simulated I/O -----------------------------------------------------
    def read(self, nbytes: int, priority: int = 0) -> Generator:
        """Process generator: read ``nbytes`` from this tier's device.

        ``priority`` 0 is a demand read; pass
        :attr:`~repro.sim.pipes.BandwidthPipe.PREFETCH` for background
        movement so it never delays application requests.
        """
        duration = yield from self.pipe.transfer(nbytes, priority=priority)
        if self.slowdown != 1.0:
            surcharge = (self.slowdown - 1.0) * self.pipe.service_time(nbytes)
            yield self.env.timeout(surcharge)
            duration += surcharge
        self.reads += 1
        self.bytes_read += nbytes
        return duration

    def write(self, nbytes: int, priority: int = 0) -> Generator:
        """Process generator: write ``nbytes`` to this tier's device."""
        duration = yield from self.pipe.transfer(nbytes, priority=priority)
        if self.slowdown != 1.0:
            surcharge = (self.slowdown - 1.0) * self.pipe.service_time(nbytes)
            yield self.env.timeout(surcharge)
            duration += surcharge
        self.writes += 1
        self.bytes_written += nbytes
        return duration

    def service_time(self, nbytes: int) -> float:
        """Uncontended transfer time for ``nbytes``."""
        return self.pipe.service_time(nbytes) * self.slowdown

    # -- health ------------------------------------------------------------
    def fail(self) -> None:
        """Mark the tier unreachable (ledger must already be drained)."""
        if self._resident:
            raise ValueError(
                f"fail() on {self.name} with {len(self._resident)} residents; "
                "drain via StorageHierarchy.fail_tier so the location index stays consistent"
            )
        self.health = TierHealth.FAILED
        self.failures += 1

    def recover(self) -> None:
        """Bring a failed tier back, empty and at full speed."""
        if self.health is TierHealth.FAILED:
            self.recoveries += 1
        self.health = TierHealth.HEALTHY
        self.slowdown = 1.0

    def degrade(self, factor: float) -> None:
        """Serve I/O ``factor`` times slower (factor >= 1)."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        if self.health is TierHealth.FAILED:
            raise ValueError(f"cannot degrade failed tier {self.name}")
        self.slowdown = factor
        self.health = TierHealth.DEGRADED if factor > 1.0 else TierHealth.HEALTHY

    def restore_speed(self) -> None:
        """Clear a device slowdown (no-op on failed tiers)."""
        if self.health is TierHealth.FAILED:
            return
        self.slowdown = 1.0
        self.health = TierHealth.HEALTHY

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StorageTier {self.name} used={self._used}/{self.capacity:g} "
            f"segments={len(self._resident)}>"
        )
