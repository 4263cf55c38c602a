"""The one cache every client-pull baseline prefetcher keeps.

All baselines manage their *own* prefetching cache (that is exactly the
application-centric design the paper critiques), so residency lives in a
:class:`ManagedCache` here rather than in the shared hierarchy ledger
HFetch uses.  Replacement is LRU, or a victim chooser for the clairvoyant
baselines.  I/O is still charged against the shared tier devices and the
origin tiers (by :class:`~repro.prefetchers.base.Prefetcher`'s shared
fetch body), so baselines and HFetch contend for the same simulated
hardware.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional

from repro.storage.tier import StorageTier

__all__ = ["ManagedCache"]


class ManagedCache:
    """A byte-budgeted prefetch cache on one tier, with pluggable eviction.

    Keys are arbitrary hashables (the baselines use segment ids).  The
    cache tracks reserved (in-flight) bytes so concurrent fetches never
    overshoot the budget, and exposes LRU eviction by default with an
    optional victim-chooser override (used for Belady baselines).
    """

    def __init__(
        self,
        tier: StorageTier,
        budget: float,
        victim_chooser: Optional[Callable[["ManagedCache"], Optional[Hashable]]] = None,
    ):
        if budget <= 0:
            raise ValueError("cache budget must be positive")
        self.tier = tier
        self.budget = float(budget)
        self.victim_chooser = victim_chooser
        self._resident: OrderedDict[Hashable, int] = OrderedDict()
        self._in_flight: dict[Hashable, int] = {}
        self.used = 0
        self.reserved = 0
        self.peak_used = 0
        self.evictions = 0
        self.fetches = 0

    # -- queries -----------------------------------------------------------
    def ready(self, key: Hashable) -> bool:
        """Resident and fully fetched."""
        return key in self._resident

    def pending(self, key: Hashable) -> bool:
        """Fetch in flight."""
        return key in self._in_flight

    def known(self, key: Hashable) -> bool:
        """Resident or in flight."""
        return key in self._resident or key in self._in_flight

    def touch(self, key: Hashable) -> None:
        """LRU bump on hit."""
        if key in self._resident:
            self._resident.move_to_end(key)

    @property
    def free(self) -> float:
        """Unreserved remaining budget."""
        return self.budget - self.used - self.reserved

    @property
    def resident_count(self) -> int:
        """Fully fetched entries."""
        return len(self._resident)

    def resident_keys(self):
        """Keys from coldest to hottest (LRU order)."""
        return list(self._resident)

    def size_of(self, key: Hashable) -> int:
        """Bytes of a resident entry."""
        return self._resident[key]

    # -- eviction -------------------------------------------------------------
    def _pick_victim(self) -> Optional[Hashable]:
        if self.victim_chooser is not None:
            victim = self.victim_chooser(self)
            if victim is not None and victim in self._resident:
                return victim
        # default: LRU head
        return next(iter(self._resident), None)

    def make_room(self, nbytes: int) -> bool:
        """Evict until ``nbytes`` fit; False when impossible."""
        if nbytes > self.budget:
            return False
        while self.free < nbytes:
            victim = self._pick_victim()
            if victim is None:
                return False
            self.invalidate(victim)
            self.evictions += 1
        return True

    def invalidate(self, key: Hashable) -> bool:
        """Drop a resident entry (no I/O — caches are clean, WORM data)."""
        size = self._resident.pop(key, None)
        if size is None:
            return False
        self.used -= size
        return True

    # -- fetch protocol ----------------------------------------------------------
    def begin_fetch(self, key: Hashable, nbytes: int) -> bool:
        """Reserve space for an incoming fetch (evicting as needed)."""
        if self.known(key):
            return False
        if not self.make_room(nbytes):
            return False
        self._in_flight[key] = nbytes
        self.reserved += nbytes
        return True

    def commit_fetch(self, key: Hashable) -> None:
        """The fetch completed: the entry becomes readable."""
        nbytes = self._in_flight.pop(key)
        self.reserved -= nbytes
        self._resident[key] = nbytes
        self.used += nbytes
        if self.used > self.peak_used:
            self.peak_used = self.used
        self.fetches += 1

    def abort_fetch(self, key: Hashable) -> None:
        """The fetch was abandoned; release the reservation."""
        nbytes = self._in_flight.pop(key, None)
        if nbytes is not None:
            self.reserved -= nbytes

    def clear(self) -> None:
        """Drop everything (teardown)."""
        self._resident.clear()
        self._in_flight.clear()
        self.used = 0
        self.reserved = 0

    def __len__(self) -> int:
        return len(self._resident)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ManagedCache {self.tier.name} used={self.used}/{self.budget:g} "
            f"inflight={len(self._in_flight)}>"
        )
