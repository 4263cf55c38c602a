"""The assembled Deep Memory & Storage Hierarchy.

A :class:`StorageHierarchy` is an ordered list of prefetching tiers
(fast → slow, e.g. RAM → NVMe → BurstBuffer) plus a *backing* tier (the
PFS) that permanently holds every byte.  The hierarchy enforces the
paper's exclusive-cache model: a prefetched segment is resident on
exactly one tier at a time (§III-D: "HFetch uses an exclusive cache
model where the same data can only be present in one tier").

The hierarchy is pure bookkeeping — actually *moving* a segment costs
simulated I/O time and is performed by the I/O clients
(:mod:`repro.core.io_clients`) or by the baseline prefetchers, which
then record the outcome here.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier

__all__ = ["StorageHierarchy", "TierFullError"]


class TierFullError(Exception):
    """Placement was attempted on a tier without room."""


class StorageHierarchy:
    """Ordered tiers plus a backing store, with exclusive residency."""

    def __init__(self, tiers: Iterable[StorageTier], backing: StorageTier):
        self.tiers: list[StorageTier] = list(tiers)
        if not self.tiers:
            raise ValueError("a hierarchy needs at least one prefetching tier")
        names = [t.name for t in self.tiers] + [backing.name]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        self.backing = backing
        self._location: dict[SegmentKey, StorageTier] = {}
        # instrumentation
        self.placements = 0
        self.evictions = 0
        self.promotions = 0
        self.demotions = 0
        self.tier_failures = 0
        self.tier_recoveries = 0
        self.segments_displaced = 0
        #: decision-provenance log (diagnosis runs only); :meth:`evict`
        #: is the single choke point every cache departure goes through,
        #: so one tap here covers rejection, invalidation and rollback —
        #: callers pass the ``cause`` it records
        self.prov = None

    def bind_telemetry(self, telemetry) -> None:
        """Register ledger counters and per-tier occupancy as gauges."""
        from repro.telemetry.handle import live

        tel = live(telemetry)
        if tel is None:
            return
        self.prov = tel.provenance
        reg = tel.registry
        reg.gauge("hierarchy.placements", fn=lambda: self.placements)
        reg.gauge("hierarchy.evictions", fn=lambda: self.evictions)
        reg.gauge("hierarchy.promotions", fn=lambda: self.promotions)
        reg.gauge("hierarchy.demotions", fn=lambda: self.demotions)
        reg.gauge(
            "hierarchy.segments_displaced", fn=lambda: self.segments_displaced
        )
        for tier in self.tiers:
            reg.gauge(f"tier.{tier.name}.used", fn=lambda t=tier: t.used)
            reg.gauge(
                f"tier.{tier.name}.resident", fn=lambda t=tier: t.resident_count
            )

    # -- structure ---------------------------------------------------------
    def tier_index(self, tier: StorageTier) -> int:
        """Position of ``tier`` (0 = fastest). Backing is ``len(tiers)``."""
        if tier is self.backing:
            return len(self.tiers)
        return self.tiers.index(tier)

    def next_below(self, tier: StorageTier) -> Optional[StorageTier]:
        """The next slower prefetching tier, or None past the last one."""
        idx = self.tier_index(tier)
        if idx + 1 < len(self.tiers):
            return self.tiers[idx + 1]
        return None

    def by_name(self, name: str) -> StorageTier:
        """Look a tier up by name (including the backing tier)."""
        for t in self.tiers:
            if t.name == name:
                return t
        if self.backing.name == name:
            return self.backing
        raise KeyError(f"no tier named {name!r}")

    @property
    def fastest(self) -> StorageTier:
        """The top tier."""
        return self.tiers[0]

    def available_tiers(self) -> list[StorageTier]:
        """Prefetching tiers currently able to hold data (fast → slow)."""
        return [t for t in self.tiers if t.available]

    # -- health ------------------------------------------------------------
    def fail_tier(self, tier: StorageTier) -> list[tuple[SegmentKey, int]]:
        """Take ``tier`` offline, returning its displaced ``(key, size)`` list.

        The cache is exclusive over a durable backing store, so an
        outage loses only *cached copies*: every displaced segment is
        still fully readable from backing.  Callers (the placement
        engine) may re-home the displaced set further down the
        hierarchy.
        """
        if tier is self.backing:
            raise ValueError("the backing store cannot fail (durability root)")
        if tier not in self.tiers:
            raise ValueError(f"{tier.name} is not part of this hierarchy")
        displaced = [(key, tier.size_of(key)) for key in list(tier.resident_keys())]
        for key, _ in displaced:
            self._location.pop(key, None)
            tier.drop(key)
        tier.fail()
        tier.reset_score_bounds()
        self.tier_failures += 1
        self.segments_displaced += len(displaced)
        return displaced

    def recover_tier(self, tier: StorageTier) -> None:
        """Bring a failed tier back into rotation (empty)."""
        if tier is not self.backing and tier not in self.tiers:
            raise ValueError(f"{tier.name} is not part of this hierarchy")
        tier.recover()
        self.tier_recoveries += 1

    # -- residency ---------------------------------------------------------
    def locate(self, key: SegmentKey) -> Optional[StorageTier]:
        """Tier currently holding ``key``, or None (i.e. backing only)."""
        return self._location.get(key)

    def resident_tier_name(self, key: SegmentKey) -> str:
        """Name of the tier serving ``key`` (backing name if unplaced)."""
        tier = self._location.get(key)
        return tier.name if tier is not None else self.backing.name

    def place(self, key: SegmentKey, nbytes: int, tier: StorageTier) -> None:
        """Make ``key`` resident on ``tier`` (exclusive: removed elsewhere).

        Raises :class:`TierFullError` if the tier cannot fit the segment;
        callers must evict first — mirroring Algorithm 1, where demotion
        happens before placement.
        """
        if tier is self.backing:
            # Placing "on backing" simply means evicting from the cache tiers.
            self.evict(key)
            return
        if tier not in self.tiers:
            raise ValueError(f"{tier.name} is not part of this hierarchy")
        current = self._location.get(key)
        if current is tier:
            return
        if not tier.available:
            raise TierFullError(f"{tier.name} is failed; cannot place {key}")
        if not tier.can_fit(nbytes):
            raise TierFullError(
                f"{tier.name} cannot fit {key} ({nbytes} B, free={tier.free:g} B)"
            )
        if current is not None:
            current.drop(key)
            if self.tier_index(tier) < self.tier_index(current):
                self.promotions += 1
            else:
                self.demotions += 1
        tier.admit(key, nbytes)
        self._location[key] = tier
        self.placements += 1

    def evict(self, key: SegmentKey, cause: str = "evicted") -> bool:
        """Drop ``key`` from whatever tier holds it. True if it was held.

        ``cause`` ("rejected", "invalidated", "move-failed", ...) is what
        the provenance log records for the departure.
        """
        tier = self._location.pop(key, None)
        if tier is None:
            return False
        tier.drop(key)
        self.evictions += 1
        if self.prov is not None:
            self.prov.evict(key, tier.name, cause)
        return True

    def evict_all(self, keys: Iterable[SegmentKey], cause: str = "evicted") -> int:
        """Evict many keys; returns how many were actually resident."""
        return sum(1 for k in list(keys) if self.evict(k, cause))

    def invalidate_file(self, file_id: str, cause: str = "invalidated") -> int:
        """Evict every resident segment of ``file_id``.

        Used when a write/update event arrives on a watched file — HFetch
        invalidates previously prefetched data to enforce consistency
        (paper §III-A.1 / §III-B).
        """
        victims = [k for k in self._location if k.file_id == file_id]
        return self.evict_all(victims, cause)

    def resident_segments(self) -> dict[SegmentKey, StorageTier]:
        """Snapshot of the full location map."""
        return dict(self._location)

    # -- sanity -------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert exclusivity and ledger consistency (used heavily in tests)."""
        seen: dict[SegmentKey, str] = {}
        for tier in self.tiers:
            used = 0
            for key in tier.resident_keys():
                if key in seen:
                    raise AssertionError(
                        f"{key} resident on both {seen[key]} and {tier.name}"
                    )
                seen[key] = tier.name
                if self._location.get(key) is not tier:
                    raise AssertionError(f"location index out of sync for {key}")
                used += tier.size_of(key)
            if used != tier.used:
                raise AssertionError(
                    f"{tier.name} ledger mismatch: sum={used} used={tier.used}"
                )
            if tier.used > tier.capacity:
                raise AssertionError(f"{tier.name} over capacity")
            if not tier.available and tier.resident_count:
                raise AssertionError(
                    f"failed tier {tier.name} still holds {tier.resident_count} segments"
                )
        if set(seen) != set(self._location):
            raise AssertionError("location index contains stale entries")

    def __repr__(self) -> str:  # pragma: no cover
        chain = " > ".join(t.name for t in self.tiers)
        return f"<StorageHierarchy {chain} | backing={self.backing.name}>"
