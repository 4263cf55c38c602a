"""Unit tests for the distributed hash map substrate (repro.dhm)."""

import pytest

from repro.dhm.hashmap import DistributedHashMap, OpCost
from repro.dhm.partition import KeyPartitioner
from repro.dhm.wal import WriteAheadLog


# ------------------------------------------------------------- partitioner
def test_partitioner_validation():
    with pytest.raises(ValueError):
        KeyPartitioner(0)
    with pytest.raises(ValueError):
        KeyPartitioner(2, virtual_nodes=0)


def test_partitioner_stable_assignment():
    p = KeyPartitioner(8)
    q = KeyPartitioner(8)
    keys = [("file", i) for i in range(100)]
    assert [p.shard_of(k) for k in keys] == [q.shard_of(k) for k in keys]


def test_partitioner_single_shard():
    p = KeyPartitioner(1)
    assert all(p.shard_of(("k", i)) == 0 for i in range(20))


def test_partitioner_spreads_load():
    p = KeyPartitioner(8, virtual_nodes=128)
    hist = p.distribution([("f", i) for i in range(4000)])
    assert len([s for s, n in hist.items() if n > 0]) == 8
    assert max(hist.values()) < 4000 * 0.5  # no shard hogs half the keys


def test_partitioner_consistency_on_growth():
    # growing the ring relocates only a fraction of keys
    small = KeyPartitioner(4, virtual_nodes=128)
    large = KeyPartitioner(5, virtual_nodes=128)
    keys = [("f", i) for i in range(2000)]
    moved = sum(1 for k in keys if small.shard_of(k) != large.shard_of(k))
    assert moved < len(keys) * 0.6  # far from a full rehash


# --------------------------------------------------------------------- map
def test_map_put_get_delete():
    m = DistributedHashMap(shards=4)
    m.put("a", 1)
    assert m.get("a") == 1
    assert "a" in m
    assert m.delete("a")
    assert not m.delete("a")
    assert m.get("a", default="gone") == "gone"


def test_map_update_atomic_rmw():
    m = DistributedHashMap(shards=4)
    for _ in range(10):
        m.update("counter", lambda v: (v or 0) + 1)
    assert m.get("counter") == 10
    assert m.updates == 10


def test_map_update_returns_new_value():
    m = DistributedHashMap(shards=2)
    assert m.update("k", lambda v: (v or 0) + 5) == 5


def test_map_len_and_iteration():
    m = DistributedHashMap(shards=4)
    for i in range(20):
        m.put(("k", i), i)
    assert len(m) == 20
    assert sorted(v for _k, v in m.items()) == list(range(20))
    assert len(list(m.keys())) == 20


def test_map_cost_model_local_vs_remote():
    cost = OpCost(local=1e-6, remote=1e-3)
    m = DistributedHashMap(shards=4, cost=cost)
    key = "some-key"
    home = m.shard_of(key)
    m.get(key, from_shard=home)
    local_cost = m.total_cost
    m.get(key, from_shard=(home + 1) % 4)
    assert m.total_cost - local_cost == pytest.approx(cost.remote)
    assert m.local_ops == 1 and m.remote_ops == 1


def test_map_snapshot_and_restore():
    m = DistributedHashMap(shards=4)
    for i in range(10):
        m.put(("k", i), i * i)
    snap = m.snapshot()
    m2 = DistributedHashMap(shards=2)
    m2.restore(snap)
    assert len(m2) == 10
    assert m2.get(("k", 3)) == 9


# --------------------------------------------------------------------- WAL
def test_wal_recovers_puts_and_deletes():
    wal = WriteAheadLog()
    wal.log_put("a", 1)
    wal.log_put("b", 2)
    wal.log_delete("a")
    state = wal.recover()
    assert state == {"b": 2}


def test_wal_checkpoint_supersedes_earlier_records():
    wal = WriteAheadLog()
    wal.log_put("old", 1)
    wal.checkpoint({"fresh": 42})
    wal.log_put("later", 3)
    assert wal.recover() == {"fresh": 42, "later": 3}


def test_wal_file_backed_survives_reopen(tmp_path):
    path = tmp_path / "map.wal"
    with WriteAheadLog(path) as wal:
        wal.log_put("persist", "yes")
        wal.flush()
    replay = WriteAheadLog(path)
    assert replay.recover() == {"persist": "yes"}
    replay.close()


def test_wal_torn_tail_ignored(tmp_path):
    path = tmp_path / "torn.wal"
    with WriteAheadLog(path) as wal:
        wal.log_put("good", 1)
        wal.flush()
    # simulate a power-down mid-append
    with open(path, "ab") as fh:
        fh.write(b"P\x40\x00")  # truncated length header
    replay = WriteAheadLog(path)
    assert replay.recover() == {"good": 1}
    replay.close()


def test_map_with_wal_end_to_end_recovery():
    wal = WriteAheadLog()
    m = DistributedHashMap(shards=4, wal=wal)
    m.put("x", 1)
    m.update("x", lambda v: v + 1)
    m.put("y", 5)
    m.delete("y")
    m.checkpoint()
    m.put("z", 9)
    # power-down: rebuild from the log alone
    reborn = DistributedHashMap(shards=4)
    reborn.restore(wal.recover())
    assert reborn.get("x") == 2
    assert reborn.get("y") is None
    assert reborn.get("z") == 9


# ------------------------------------------------------- bulk fast paths
def test_get_many_matches_per_key_gets():
    a = DistributedHashMap(shards=4)
    b = DistributedHashMap(shards=4)
    keys = [f"k{i}" for i in range(20)]
    for m in (a, b):
        for i, k in enumerate(keys):
            m.put(k, i, from_shard=i % 4)
    single = [a.get(k, from_shard=2) for k in keys]
    bulk = b.get_many(keys, from_shard=2)
    assert single == bulk
    assert a.gets == b.gets
    assert a.local_ops == b.local_ops
    assert a.remote_ops == b.remote_ops
    assert a.total_cost == pytest.approx(b.total_cost)


def test_get_many_default_and_order():
    m = DistributedHashMap(shards=2)
    m.put("x", 1)
    assert m.get_many(["missing", "x"], default=-1) == [-1, 1]


def test_update_many_matches_per_key_updates():
    a = DistributedHashMap(shards=4)
    b = DistributedHashMap(shards=4)
    keys = [f"k{i}" for i in range(17)]
    for k in keys:
        a.update(k, lambda v: (v or 0) + 1, from_shard=1)
    out = b.update_many(keys, lambda k, v: (v or 0) + 1, from_shard=1)
    assert out == [1] * len(keys)
    assert a.snapshot() == b.snapshot()
    assert a.updates == b.updates
    assert a.local_ops == b.local_ops
    assert a.remote_ops == b.remote_ops
    assert a.total_cost == pytest.approx(b.total_cost)


def test_update_many_logs_to_wal():
    wal = WriteAheadLog()
    m = DistributedHashMap(shards=2, wal=wal)
    m.update_many(["a", "b"], lambda k, v: k.upper())
    reborn = DistributedHashMap(shards=2)
    reborn.restore(wal.recover())
    assert reborn.get("a") == "A" and reborn.get("b") == "B"


def test_charge_batch_accounting():
    m = DistributedHashMap(shards=2, cost=OpCost(local=1.0, remote=10.0))
    m.charge_batch(local_ops=3, remote_ops=2, gets=1, updates=4)
    assert m.local_ops == 3 and m.remote_ops == 2
    assert m.gets == 1 and m.updates == 4
    assert m.total_cost == pytest.approx(3 * 1.0 + 2 * 10.0)


def test_shard_of_memoisation_is_stable():
    m = DistributedHashMap(shards=8)
    p = KeyPartitioner(8)
    for i in range(50):
        key = ("file", i)
        first = m.shard_of(key)
        assert m.shard_of(key) == first  # memo hit
        assert first == p.shard_of(key)  # same ring as the partitioner
    single = DistributedHashMap(shards=1)
    assert single.shard_of("anything") == 0


def test_local_shard_is_raw_and_uncharged():
    m = DistributedHashMap(shards=2)
    before = (m.gets, m.puts, m.total_cost)
    sid = m.shard_of("k")
    m.local_shard(sid)["k"] = 42
    assert (m.gets, m.puts, m.total_cost) == before  # caller must charge_batch
    assert m.get("k") == 42


def test_peek_reads_like_get_without_charging():
    m = DistributedHashMap(shards=4)
    m.put("k", 42)
    before = (m.gets, m.local_ops, m.remote_ops, m.total_cost)
    assert m.peek("k") == 42
    assert m.peek("missing", "d") == "d"
    assert (m.gets, m.local_ops, m.remote_ops, m.total_cost) == before


def test_peek_reads_through_the_wal_while_a_shard_is_down():
    m = DistributedHashMap(shards=4, wal=WriteAheadLog())
    key = next(k for k in (f"k{i}" for i in range(100)) if m.shard_of(k) == 0)
    m.put(key, "logged")
    m.fail_shard(0)
    before = (m.gets, m.degraded_ops, m.retries, m.total_cost)
    assert m.peek(key) == "logged"
    assert (m.gets, m.degraded_ops, m.retries, m.total_cost) == before
    m.put(key, "staged")
    assert m.peek(key) == "staged" == m.get(key)
