"""DHM shard outage: retry accounting, WAL read-through, staged recovery,
and score consistency across a failover."""

import pytest

from repro.dhm.hashmap import (
    DHM_MAX_RETRIES,
    DHM_RETRY_BACKOFF,
    DistributedHashMap,
    OpCost,
)
from repro.dhm.wal import WriteAheadLog
from repro.faults import FaultPlan

from .conftest import assert_no_lost_segments, hfetch_config, run_hfetch


def keys_on_shard(dhm, sid, n=5, prefix="k"):
    """First ``n`` keys that partition onto shard ``sid``."""
    out = []
    i = 0
    while len(out) < n:
        key = f"{prefix}{i}"
        if dhm.shard_of(key) == sid:
            out.append(key)
        i += 1
    return out


class TestShardOutageUnit:
    def test_fail_shard_validates_range(self):
        dhm = DistributedHashMap(shards=4)
        with pytest.raises(ValueError):
            dhm.fail_shard(4)
        with pytest.raises(ValueError):
            dhm.fail_shard(-1)

    def test_reads_recompute_from_wal(self):
        dhm = DistributedHashMap(shards=4, wal=WriteAheadLog())
        keys = keys_on_shard(dhm, 0)
        for i, k in enumerate(keys):
            dhm.put(k, i * 10)
        dhm.fail_shard(0)
        # the dead shard's values are served from the recovered WAL state
        for i, k in enumerate(keys):
            assert dhm.get(k) == i * 10
        assert dhm.degraded_ops > 0
        assert dhm.retries == dhm.degraded_ops * DHM_MAX_RETRIES

    def test_reads_without_wal_are_lossy(self):
        dhm = DistributedHashMap(shards=4)  # no WAL
        keys = keys_on_shard(dhm, 0)
        for k in keys:
            dhm.put(k, "v")
        dhm.fail_shard(0)
        assert dhm.get(keys[0], "missing") == "missing"
        # other shards are untouched
        other = keys_on_shard(dhm, 1, n=1)[0]
        dhm.put(other, "live")
        assert dhm.get(other) == "live"

    def test_degraded_ops_charge_retry_backoff(self):
        cost = OpCost(local=1e-6, remote=10e-6)
        dhm = DistributedHashMap(shards=4, cost=cost)
        key = keys_on_shard(dhm, 0, n=1)[0]
        dhm.put(key, 1)
        before = dhm.total_cost
        dhm.fail_shard(0)
        dhm.get(key)
        spent = dhm.total_cost - before
        # one charged get plus the retries, each a remote round + backoff
        assert spent == pytest.approx(
            cost.local + DHM_MAX_RETRIES * (cost.remote + DHM_RETRY_BACKOFF)
        )

    def test_writes_stage_and_merge_on_recovery(self):
        dhm = DistributedHashMap(shards=4, wal=WriteAheadLog())
        keys = keys_on_shard(dhm, 0, n=4)
        for k in keys:
            dhm.put(k, "old")
        dhm.fail_shard(0)
        dhm.put(keys[0], "staged")  # overwrite during outage
        dhm.delete(keys[1])  # tombstone during outage
        assert dhm.get(keys[0]) == "staged"
        assert dhm.get(keys[1]) is None
        assert keys[1] not in dhm
        merged = dhm.recover_shard(0)
        assert merged >= 2
        assert dhm.down_shards == frozenset()
        # post-recovery: staged write visible, tombstone applied, rest intact
        assert dhm.get(keys[0]) == "staged"
        assert dhm.get(keys[1]) is None
        assert dhm.get(keys[2]) == "old"
        assert dhm.shard_failures == 1 and dhm.shard_recoveries == 1

    def test_update_on_down_shard_reads_through_wal(self):
        dhm = DistributedHashMap(shards=4, wal=WriteAheadLog())
        key = keys_on_shard(dhm, 0, n=1)[0]
        dhm.put(key, 10)
        dhm.fail_shard(0)
        assert dhm.update(key, lambda v: (v or 0) + 1) == 11
        dhm.recover_shard(0)
        assert dhm.get(key) == 11

    def test_bulk_paths_fall_back_when_down(self):
        dhm = DistributedHashMap(shards=4, wal=WriteAheadLog())
        down = keys_on_shard(dhm, 0, n=2)
        up = keys_on_shard(dhm, 1, n=2)
        for k in down + up:
            dhm.put(k, 1)
        dhm.fail_shard(0)
        assert dhm.get_many(down + up) == [1, 1, 1, 1]
        assert dhm.degraded_ops == 2  # one per key on the down shard
        dhm.recover_shard(0)
        assert dhm.get_many(down + up) == [1, 1, 1, 1]

    def test_recover_idempotent(self):
        dhm = DistributedHashMap(shards=2)
        assert dhm.recover_shard(0) == 0  # never failed
        dhm.fail_shard(0)
        dhm.recover_shard(0)
        assert dhm.recover_shard(0) == 0


class TestScoreConsistency:
    """Scores recomputed from the WAL match the pre-outage scores."""

    def test_scores_survive_failover(self):
        runner, result = run_hfetch(config=hfetch_config(dhm_wal=True))
        server = runner.prefetcher.server
        auditor = server.auditor
        dhm = server.stats_map
        now = runner.ctx.env.now
        keys = [k for k, _ in zip(dhm.keys(), range(50))]
        assert keys, "expected segment statistics after a full run"
        before = {k: auditor.score_of(k, now) for k in keys}
        dhm.fail_shard(0)
        after_outage = {k: auditor.score_of(k, now) for k in keys}
        assert after_outage == pytest.approx(before)
        dhm.recover_shard(0)
        after_recovery = {k: auditor.score_of(k, now) for k in keys}
        assert after_recovery == pytest.approx(before)


class TestShardOutageEndToEnd:
    def test_mid_run_shard_outage_completes(self):
        _, baseline = run_hfetch(config=hfetch_config(dhm_wal=True))
        half = 0.5 * baseline.end_to_end_time
        plan = FaultPlan(seed=17).shard_outage(0, at=half, duration=0.25 * half)
        runner, result = run_hfetch(fault_plan=plan, config=hfetch_config(dhm_wal=True))
        assert_no_lost_segments(runner, result)
        # both edges recorded (down + recovered)
        assert result.faults.get("shard_outage") == 2
        server = runner.prefetcher.server
        total_failures = (
            server.stats_map.shard_failures + server.agent_manager.mapping_map.shard_failures
        )
        assert total_failures >= 1
        assert server.stats_map.down_shards == frozenset()

    def test_replay_is_identical(self):
        plan = FaultPlan(seed=23).shard_outage(1, at=0.05, duration=0.05)
        cfg = hfetch_config(dhm_wal=True)
        runner_a, result_a = run_hfetch(fault_plan=plan, config=cfg)
        runner_b, result_b = run_hfetch(fault_plan=plan, config=cfg)
        assert runner_a.injector.log == runner_b.injector.log
        assert result_a.row() == result_b.row()
