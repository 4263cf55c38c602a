"""The distributed hash map (HCL stand-in).

Provides the operations the paper's auditor depends on (§III-A.2):

* O(1) ``get`` / ``put`` / ``delete``.
* **Atomic read-modify-write** (:meth:`DistributedHashMap.update`) —
  "based on the starting offset and the length of a read request, the
  auditor will atomically update one or more targeted segments' score
  in the map.  This update will be visible across all nodes."
* A per-operation **cost model**: an access from node *n* to a key whose
  shard lives on node *m* costs a local-shard or remote-shard latency.
  The ablation bench (``abl_dhm``) uses this to reproduce the paper's
  claim that removing the DHM (i.e. broadcasting every update across the
  cluster) is prohibitively expensive.
* Optional write-ahead logging for power-down fault tolerance.

What the cost model charges: the auditor's fold (every statistics
update and sequencing-link read) and the agents' mapping lookups.  The
placement engine's reads of the statistics map go through the uncharged
:meth:`DistributedHashMap.peek` instead: the engine runs inside the
server and reads its co-located view of the map, so in this model those
reads cost nothing.  ``peek`` still reads through the staged overlay and
the write-ahead log while a shard is down, so fault runs see the same
records; it only skips the op counters, ``total_cost`` and the retry
charge.  On the Montage benchmark workload this takes about 87% of the
stats map's ``gets`` off the books.  No ``RunResult`` field reads the
stats map's cost (only the mapping map's cost becomes simulated time,
in :mod:`repro.core.agents`), so no simulated result moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.dhm.partition import KeyPartitioner
from repro.dhm.wal import WriteAheadLog

__all__ = ["OpCost", "DistributedHashMap"]


class _Tombstone:
    """Sentinel marking a key deleted while its shard was down."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<tombstone>"


_TOMBSTONE = _Tombstone()


class _ShardOverlay(dict):
    """Staging store for a failed shard, with WAL read-through.

    While a shard is out, writes land here and reads fall back to the
    state recomputed from the write-ahead log.  A recovered value is
    cached into the overlay on first read so the auditor's in-place
    mutation protocol (``shard.get(key)`` then ``stats.record(...)``)
    keeps working across repeated reads.  On shard recovery the overlay
    is merged over the real shard (tombstones delete).
    """

    def __init__(self, wal_state):
        super().__init__()
        self._wal_state = wal_state  # zero-arg callable -> recovered dict
        self.fallback_reads = 0

    def get(self, key, default=None):
        try:
            value = dict.__getitem__(self, key)
        except KeyError:
            state = self._wal_state()
            if key not in state:
                return default
            value = state[key]
            dict.__setitem__(self, key, value)
            self.fallback_reads += 1
        return default if value is _TOMBSTONE else value

    def __contains__(self, key) -> bool:
        return self.get(key, _TOMBSTONE) is not _TOMBSTONE

    def __delitem__(self, key) -> None:
        # tombstone instead of removal, so read-through cannot resurrect
        dict.__setitem__(self, key, _TOMBSTONE)


@dataclass(frozen=True)
class OpCost:
    """Latency model of one map operation class (seconds)."""

    local: float = 2e-7  # in-memory hash op on the local shard
    remote: float = 5e-6  # one RDMA round to a remote shard

    def of(self, is_local: bool) -> float:
        """Cost of an op given shard locality."""
        return self.local if is_local else self.remote


class DistributedHashMap:
    """Sharded key-value map with atomic updates and a cost model.

    Parameters
    ----------
    shards:
        Number of server shards (≈ number of HFetch server nodes).
    cost:
        Latency model; :meth:`charged` ops accumulate virtual seconds in
        :attr:`total_cost` which callers may charge to the simulation.
    wal:
        Optional write-ahead log for durability.
    """

    def __init__(
        self,
        shards: int = 1,
        cost: OpCost = OpCost(),
        wal: Optional[WriteAheadLog] = None,
        virtual_nodes: int = 64,
        max_retries: int = 3,
        retry_backoff: float = 5e-6,
    ):
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.partitioner = KeyPartitioner(shards, virtual_nodes=virtual_nodes)
        self.cost = cost
        self.wal = wal
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self._shards: list[dict[Hashable, Any]] = [dict() for _ in range(shards)]
        # shard-outage state (empty in healthy runs — the hot paths only
        # pay a falsy-set check)
        self._down: set[int] = set()
        self._staged: dict[int, _ShardOverlay] = {}
        self._wal_cache: Optional[dict] = None
        # Memoised ring lookups: ``KeyPartitioner.shard_of`` hashes the
        # key's repr through crc32 twice per call, which dominates the
        # per-op cost on hot paths.  The ring never changes after
        # construction, so the mapping is safe to cache forever (memory
        # is bounded by the distinct keys ever touched).
        self._shard_ids: dict[Hashable, int] = {}
        # instrumentation
        self.gets = 0
        self.puts = 0
        self.updates = 0
        self.deletes = 0
        self.remote_ops = 0
        self.local_ops = 0
        self.total_cost = 0.0
        self.degraded_ops = 0
        self.retries = 0
        self.shard_failures = 0
        self.shard_recoveries = 0
        self.staged_merged = 0
        # telemetry (None in normal runs: zero overhead)
        self._h_op = None
        self._h_batch_cost = None

    def bind_telemetry(self, telemetry, prefix: str = "dhm") -> None:
        """Register this map's metrics under ``prefix`` in a live handle."""
        from repro.telemetry.handle import live

        tel = live(telemetry)
        if tel is None:
            return
        reg = tel.registry
        # per-op costs sit around 2e-7..5e-6 s — start buckets below them
        self._h_op = reg.histogram(f"{prefix}.op_cost_s", lo=1e-8)
        self._h_batch_cost = reg.histogram(f"{prefix}.batch_cost_s", lo=1e-8)
        # Per-op cost is a pure function of shard locality, and the hot
        # paths already count local/remote ops — so the per-op histogram
        # is reconstructed *exactly* at end of run instead of paying an
        # observation on every map operation.
        start_local, start_remote = self.local_ops, self.remote_ops

        def _fold_op_costs() -> None:
            self._h_op.observe_batch(self.cost.local, self.local_ops - start_local)
            self._h_op.observe_batch(self.cost.remote, self.remote_ops - start_remote)

        tel.add_finalizer(_fold_op_costs)
        reg.gauge(f"{prefix}.local_ops", fn=lambda: self.local_ops)
        reg.gauge(f"{prefix}.remote_ops", fn=lambda: self.remote_ops)
        reg.gauge(f"{prefix}.total_cost_s", fn=lambda: self.total_cost)
        reg.gauge(f"{prefix}.degraded_ops", fn=lambda: self.degraded_ops)

    # -- shard plumbing ------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of server shards."""
        return len(self._shards)

    def shard_of(self, key: Hashable) -> int:
        """Shard id owning ``key`` (memoised ring lookup)."""
        if len(self._shards) == 1:
            return 0
        sid = self._shard_ids.get(key)
        if sid is None:
            self._shard_ids[key] = sid = self.partitioner.shard_of(key)
        return sid

    def _charge(self, key: Hashable, from_shard: Optional[int]) -> dict:
        shard_id = self.shard_of(key)
        is_local = from_shard is None or from_shard == shard_id
        c = self.cost.of(is_local)
        self.total_cost += c
        if is_local:
            self.local_ops += 1
        else:
            self.remote_ops += 1
        if self._down and shard_id in self._down:
            self._charge_degraded()
            return self._staged[shard_id]
        return self._shards[shard_id]

    def _charge_degraded(self) -> None:
        """Account retry-with-backoff latency for an op on a down shard.

        The caller retries ``max_retries`` times against the dead shard
        (each a remote round plus a backoff sleep) before falling back
        to the staged overlay / WAL read-through.
        """
        n = self.max_retries
        self.retries += n
        self.degraded_ops += 1
        self.total_cost += n * (self.cost.remote + self.retry_backoff)

    # -- operations -------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None, from_shard: Optional[int] = None) -> Any:
        """Read ``key`` (O(1)); ``from_shard`` selects the caller's node."""
        self.gets += 1
        return self._charge(key, from_shard).get(key, default)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncharged read of ``key`` from the caller's co-located view.

        Returns what :meth:`get` would (through the staged overlay and
        WAL read-through while the key's shard is down) without counting
        the op or charging its cost or retries.
        """
        sid = self.shard_of(key)
        if self._down and sid in self._down:
            return self._staged[sid].get(key, default)
        return self._shards[sid].get(key, default)

    def put(self, key: Hashable, value: Any, from_shard: Optional[int] = None) -> None:
        """Write ``key`` (O(1))."""
        self.puts += 1
        self._charge(key, from_shard)[key] = value
        if self.wal is not None:
            self.wal.log_put(key, value)

    def update(
        self,
        key: Hashable,
        fn: Callable[[Any], Any],
        default: Any = None,
        from_shard: Optional[int] = None,
    ) -> Any:
        """Atomic read-modify-write: ``map[key] = fn(map.get(key, default))``.

        The shard applies ``fn`` under its own lock (simulated as a single
        indivisible step), so concurrent updaters never lose increments —
        the property the auditor's score updates rely on.
        """
        self.updates += 1
        shard = self._charge(key, from_shard)
        new_value = fn(shard.get(key, default))
        shard[key] = new_value
        if self.wal is not None:
            self.wal.log_put(key, new_value)
        return new_value

    def delete(self, key: Hashable, from_shard: Optional[int] = None) -> bool:
        """Remove ``key``; True when it existed."""
        self.deletes += 1
        shard = self._charge(key, from_shard)
        existed = key in shard
        if existed:
            del shard[key]
            if self.wal is not None:
                self.wal.log_delete(key)
        return existed

    def contains(self, key: Hashable, from_shard: Optional[int] = None) -> bool:
        """Membership test (charged like a get)."""
        self.gets += 1
        return key in self._charge(key, from_shard)

    # -- charged bulk fast paths ---------------------------------------------------
    def get_many(
        self,
        keys: Iterable[Hashable],
        default: Any = None,
        from_shard: Optional[int] = None,
    ) -> list[Any]:
        """Bulk :meth:`get`: one aggregated charge for the whole batch.

        Latency-equivalent to ``[self.get(k, default, from_shard) for k
        in keys]`` but the per-op Python overhead (method dispatch, cost
        bookkeeping) is paid once per batch instead of once per key.
        """
        if self._down:
            # degraded slow path: per-key charged gets (overlay-aware)
            return [self.get(key, default, from_shard) for key in keys]
        shards = self._shards
        single = len(shards) == 1
        shard_of = self.shard_of
        out = []
        local = remote = 0
        for key in keys:
            sid = 0 if single else shard_of(key)
            if from_shard is None or from_shard == sid:
                local += 1
            else:
                remote += 1
            out.append(shards[sid].get(key, default))
        self.charge_batch(local_ops=local, remote_ops=remote, gets=len(out))
        return out

    def update_many(
        self,
        keys: Iterable[Hashable],
        fn: Callable[[Hashable, Any], Any],
        default: Any = None,
        from_shard: Optional[int] = None,
    ) -> list[Any]:
        """Bulk atomic read-modify-write with one aggregated charge.

        Unlike :meth:`update`, ``fn`` receives ``(key, current)`` so one
        shared function can serve the whole batch without allocating a
        closure per key.  Each key's application is still an indivisible
        shard-local step; results are returned in input order.
        """
        if self._down:
            # degraded slow path: per-key charged updates (overlay-aware)
            out = []
            for key in keys:
                self.updates += 1
                shard = self._charge(key, from_shard)
                new_value = fn(key, shard.get(key, default))
                shard[key] = new_value
                if self.wal is not None:
                    self.wal.log_put(key, new_value)
                out.append(new_value)
            return out
        shards = self._shards
        single = len(shards) == 1
        shard_of = self.shard_of
        wal = self.wal
        out = []
        local = remote = 0
        for key in keys:
            sid = 0 if single else shard_of(key)
            if from_shard is None or from_shard == sid:
                local += 1
            else:
                remote += 1
            shard = shards[sid]
            new_value = fn(key, shard.get(key, default))
            shard[key] = new_value
            if wal is not None:
                wal.log_put(key, new_value)
            out.append(new_value)
        self.charge_batch(local_ops=local, remote_ops=remote, updates=len(out))
        return out

    def local_shard(self, shard_id: int) -> dict:
        """Direct handle to one shard's dict for uncharged bulk folds.

        This is the raw half of the bulk protocol: a caller that mutates
        records through this handle (the auditor's batched event fold)
        must account the traffic itself via :meth:`charge_batch`, and
        must write its own WAL entries when :attr:`wal` is set.

        While ``shard_id`` is out, the staged overlay is returned
        instead (the retry cost is charged here, once per handle).
        """
        if self._down and shard_id in self._down:
            self._charge_degraded()
            return self._staged[shard_id]
        return self._shards[shard_id]

    def charge_batch(
        self,
        local_ops: int = 0,
        remote_ops: int = 0,
        *,
        gets: int = 0,
        puts: int = 0,
        updates: int = 0,
        deletes: int = 0,
    ) -> None:
        """Account a batch of operations performed through :meth:`local_shard`."""
        self.gets += gets
        self.puts += puts
        self.updates += updates
        self.deletes += deletes
        self.local_ops += local_ops
        self.remote_ops += remote_ops
        cost = local_ops * self.cost.local + remote_ops * self.cost.remote
        self.total_cost += cost
        if self._h_batch_cost is not None and (local_ops or remote_ops):
            self._h_batch_cost.observe(cost)

    # -- shard outage & recovery ---------------------------------------------------
    def _wal_state(self) -> dict:
        """State recomputed from the WAL (cached; empty without a WAL)."""
        if self._wal_cache is None:
            self._wal_cache = self.wal.recover() if self.wal is not None else {}
        return self._wal_cache

    @property
    def down_shards(self) -> frozenset:
        """Ids of shards currently out."""
        return frozenset(self._down)

    def fail_shard(self, shard_id: int) -> None:
        """Take one shard offline.

        Subsequent operations on its keys pay retry-with-backoff latency,
        write into a staged overlay, and read through the state recovered
        from the write-ahead log (scores are *recomputed from the WAL*,
        not served from the dead shard).  Without a WAL the fallback is
        lossy: reads miss and records restart fresh.
        """
        if not 0 <= shard_id < len(self._shards):
            raise ValueError(f"shard id {shard_id} out of range [0, {len(self._shards)})")
        if shard_id in self._down:
            return
        self._down.add(shard_id)
        self._wal_cache = None  # recompute on first read-through
        self._staged[shard_id] = _ShardOverlay(self._wal_state)
        self.shard_failures += 1

    def recover_shard(self, shard_id: int) -> int:
        """Bring a shard back, merging its staged overlay over the shard.

        Returns the number of staged entries merged (tombstones delete).
        """
        if shard_id not in self._down:
            return 0
        self._down.discard(shard_id)
        overlay = self._staged.pop(shard_id)
        real = self._shards[shard_id]
        merged = 0
        for key, value in dict.items(overlay):
            if value is _TOMBSTONE:
                real.pop(key, None)
            else:
                real[key] = value
            merged += 1
        self.shard_recoveries += 1
        self.staged_merged += merged
        return merged

    # -- bulk / scan (uncharged admin operations) ----------------------------------
    def keys(self) -> Iterable[Hashable]:
        """All keys across shards (admin/diagnostic scan)."""
        for shard in self._shards:
            yield from shard.keys()

    def items(self) -> Iterable[tuple[Hashable, Any]]:
        """All items across shards (admin/diagnostic scan)."""
        for shard in self._shards:
            yield from shard.items()

    def snapshot(self) -> dict:
        """A flat copy of the whole map."""
        out: dict = {}
        for shard in self._shards:
            out.update(shard)
        return out

    def checkpoint(self) -> None:
        """Persist a snapshot through the WAL (no-op without one)."""
        if self.wal is not None:
            self.wal.checkpoint(self.snapshot())

    def restore(self, state: dict) -> None:
        """Load a recovered state, re-partitioning keys onto shards."""
        for shard in self._shards:
            shard.clear()
        for key, value in state.items():
            self._shards[self.shard_of(key)][key] = value

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        sid = self.shard_of(key)
        if self._down and sid in self._down:
            return key in self._staged[sid]
        return key in self._shards[sid]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DistributedHashMap shards={self.shards} size={len(self)}>"
