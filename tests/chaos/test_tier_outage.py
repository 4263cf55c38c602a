"""Tier outage & recovery: health states, re-homing, and the acceptance
scenario — kill a mid-hierarchy tier at t=50% and finish intact."""

import math

import pytest

from repro.faults import FaultPlan
from repro.metrics import format_run_results
from repro.sim.core import Environment
from repro.storage.devices import DRAM, NVME, PFS_DISK
from repro.storage.hierarchy import StorageHierarchy, TierFullError
from repro.storage.segments import SegmentKey
from repro.storage.tier import StorageTier, TierHealth

from .conftest import assert_no_lost_segments, run_hfetch

MB = 1 << 20


def build_hierarchy():
    env = Environment()
    ram = StorageTier(env, DRAM, 4 * MB, name="RAM")
    nvme = StorageTier(env, NVME, 8 * MB, name="NVMe")
    backing = StorageTier(env, PFS_DISK, 1 << 40, name="PFS")
    return env, StorageHierarchy([ram, nvme], backing)


class TestTierHealth:
    def test_failed_tier_advertises_zero_capacity(self):
        env, h = build_hierarchy()
        ram = h.by_name("RAM")
        assert ram.available and ram.free == 4 * MB
        h.fail_tier(ram)
        assert ram.health is TierHealth.FAILED
        assert not ram.available
        assert ram.free == 0.0
        assert not ram.can_fit(1)
        h.recover_tier(ram)
        assert ram.available and ram.free == 4 * MB

    def test_fail_tier_displaces_residents(self):
        env, h = build_hierarchy()
        ram = h.by_name("RAM")
        keys = [SegmentKey("f", i) for i in range(3)]
        for k in keys:
            h.place(k, MB, ram)
        displaced = h.fail_tier(ram)
        assert sorted(k for k, _ in displaced) == sorted(keys)
        assert all(n == MB for _, n in displaced)
        assert ram.resident_count == 0 and ram.used == 0
        for k in keys:
            assert h.locate(k) is None  # backing still holds the bytes
        h.check_invariants()

    def test_place_on_failed_tier_raises(self):
        env, h = build_hierarchy()
        ram = h.by_name("RAM")
        h.fail_tier(ram)
        with pytest.raises(TierFullError):
            h.place(SegmentKey("f", 0), MB, ram)

    def test_backing_cannot_fail(self):
        env, h = build_hierarchy()
        with pytest.raises(ValueError):
            h.fail_tier(h.backing)

    def test_fail_with_residents_requires_hierarchy_drain(self):
        env, h = build_hierarchy()
        ram = h.by_name("RAM")
        h.place(SegmentKey("f", 0), MB, ram)
        with pytest.raises(ValueError):
            ram.fail()  # direct fail() must go through fail_tier

    def test_available_tiers_skips_failed(self):
        env, h = build_hierarchy()
        assert [t.name for t in h.available_tiers()] == ["RAM", "NVMe"]
        h.fail_tier(h.by_name("RAM"))
        assert [t.name for t in h.available_tiers()] == ["NVMe"]

    def test_degrade_slows_io_and_recovers(self):
        env, h = build_hierarchy()
        ram = h.by_name("RAM")
        base = ram.service_time(MB)
        ram.degrade(3.0)
        assert ram.health is TierHealth.DEGRADED
        assert ram.available  # degraded tiers still serve
        assert ram.service_time(MB) == pytest.approx(3.0 * base)
        ram.restore_speed()
        assert ram.health is TierHealth.HEALTHY
        assert ram.service_time(MB) == pytest.approx(base)

    def test_degraded_read_takes_longer(self):
        env, h = build_hierarchy()
        ram = h.by_name("RAM")

        durations = []

        def body():
            d = yield from ram.read(MB)
            durations.append(d)

        env.process(body())
        env.run()
        ram.degrade(4.0)
        env.process(body())
        env.run()
        assert durations[1] == pytest.approx(4.0 * durations[0])


class TestMidRunOutage:
    """The acceptance scenario: one mid-hierarchy tier dies at t=50%."""

    def _outage_plan(self, seed=2020):
        # baseline run to find the makespan, then kill NVMe halfway
        _, baseline = run_hfetch()
        plan = FaultPlan(seed=seed).tier_outage("NVMe", at=0.5 * baseline.end_to_end_time)
        return plan

    def test_completes_with_no_lost_segments(self):
        plan = self._outage_plan()
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        nvme = runner.ctx.hierarchy.by_name("NVMe")
        assert not nvme.available
        assert nvme.resident_count == 0
        # the outage was injected and counted
        assert result.faults.get("tier_outage") == 1
        assert runner.injector is not None
        assert any(kind == "tier_outage" for _, kind, _ in runner.injector.log)
        # the demand-fetch fallback budget is surfaced in the metrics
        server = runner.prefetcher.server
        m = server.metrics()
        assert "demand_fallbacks" in m and m["demand_fallbacks"] >= 0
        assert m["tier_failures"] == 1

    def test_replay_is_byte_identical(self):
        plan = self._outage_plan(seed=99)
        runner_a, result_a = run_hfetch(fault_plan=plan)
        runner_b, result_b = run_hfetch(fault_plan=plan)
        assert runner_a.injector.log == runner_b.injector.log
        assert runner_a.injector.log_lines() == runner_b.injector.log_lines()
        assert format_run_results([result_a]) == format_run_results([result_b])
        assert result_a.faults == result_b.faults
        assert result_a.row() == result_b.row()

    def test_outage_with_recovery_restores_capacity(self):
        _, baseline = run_hfetch()
        half = 0.5 * baseline.end_to_end_time
        plan = FaultPlan(seed=5).tier_outage("NVMe", at=0.25 * half, duration=0.5 * half)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        nvme = runner.ctx.hierarchy.by_name("NVMe")
        # monotone recovery: the tier came back at full advertised capacity
        assert nvme.available
        assert nvme.free + nvme.used == nvme.capacity
        assert nvme.failures == 1 and nvme.recoveries == 1
        # both edges (down + recovered) are recorded
        assert result.faults.get("tier_outage") == 2
        log_kinds = [d for _, k, d in runner.injector.log if k == "tier_outage"]
        assert any("recovered" in d for d in log_kinds)

    def test_engine_rehomes_displaced_segments(self):
        _, baseline = run_hfetch()
        # kill the *fastest* tier, where the hottest segments live
        plan = FaultPlan(seed=3).tier_outage("RAM", at=0.5 * baseline.end_to_end_time)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        server = runner.prefetcher.server
        assert server.engine.tier_failures == 1
        # displaced hot segments were pushed down the surviving hierarchy
        assert server.hierarchy.segments_displaced >= server.engine.segments_rehomed

    def test_device_slowdown_plan_completes(self):
        plan = FaultPlan(seed=8).device_slowdown("RAM", factor=8.0, at=0.0)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        assert result.faults.get("device_slowdown") == 1
        assert runner.ctx.hierarchy.by_name("RAM").slowdown == 8.0

    def test_slowdown_of_a_failed_tier_is_skipped(self):
        plan = (
            FaultPlan(seed=0)
            .tier_outage("RAM", at=0.0)
            .device_slowdown("RAM", factor=2.0, at=0.0)
        )
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        ram = runner.ctx.hierarchy.by_name("RAM")
        assert not ram.available and ram.slowdown == 1.0
        assert any(
            k == "device_slowdown" and "skipped" in d for _, k, d in runner.injector.log
        )
