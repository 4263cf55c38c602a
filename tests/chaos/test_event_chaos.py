"""Event-channel chaos (drop / duplicate / reorder) and prefetch I/O errors."""

import pytest

from repro.events.queue import EventQueue
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.faults.injector import EventChaos
from repro.sim.core import Environment
from repro.sim.rng import SeededStream

from .conftest import assert_no_lost_segments, run_hfetch


def make_chaos(drop=(), duplicate=(), reorder=(), seed=1):
    records = []
    chaos = EventChaos(
        list(drop),
        list(duplicate),
        list(reorder),
        SeededStream(seed, "test-chaos"),
        lambda kind, detail: records.append((kind, detail)),
    )
    return chaos, records


class TestEventChaosFilter:
    def test_no_active_window_passes_through(self):
        spec = FaultSpec(FaultKind.EVENT_DROP, at=10.0, duration=5.0, probability=1.0)
        chaos, records = make_chaos(drop=[spec])
        assert chaos.filter("e1", now=0.0) == ["e1"]
        assert chaos.filter("e2", now=20.0) == ["e2"]
        assert not records and chaos.dropped == 0

    def test_drop_inside_window(self):
        spec = FaultSpec(FaultKind.EVENT_DROP, at=0.0, probability=1.0)
        chaos, records = make_chaos(drop=[spec])
        assert chaos.filter("e1", now=1.0) == []
        assert chaos.dropped == 1
        assert records[0][0] is FaultKind.EVENT_DROP

    def test_duplicate_inside_window(self):
        spec = FaultSpec(FaultKind.EVENT_DUPLICATE, at=0.0, probability=1.0)
        chaos, _ = make_chaos(duplicate=[spec])
        assert chaos.filter("e1", now=1.0) == ["e1", "e1"]
        assert chaos.duplicated == 1

    def test_reorder_swaps_adjacent_events(self):
        spec = FaultSpec(FaultKind.EVENT_REORDER, at=0.0, probability=1.0)
        chaos, _ = make_chaos(reorder=[spec])
        # first event is held...
        assert chaos.filter("e1", now=1.0) == []
        # ...and released *behind* the next one (pairwise swap); the next
        # event cannot itself be held while one is already in hand
        assert chaos.filter("e2", now=1.0) == ["e2", "e1"]
        assert chaos.reordered >= 1

    def test_deterministic_given_same_stream(self):
        spec = FaultSpec(FaultKind.EVENT_DROP, at=0.0, probability=0.5)

        def run():
            chaos, _ = make_chaos(drop=[spec], seed=77)
            return [len(chaos.filter(f"e{i}", now=1.0)) for i in range(200)]

        assert run() == run()
        assert 0 < sum(run()) < 200  # some dropped, some passed

    def test_queue_chaos_hook(self):
        env = Environment()
        queue = EventQueue(env, capacity=64)
        spec = FaultSpec(FaultKind.EVENT_DUPLICATE, at=0.0, probability=1.0)
        chaos, _ = make_chaos(duplicate=[spec])
        queue.chaos = chaos
        assert queue.push("x") is True
        assert queue.level == 2  # duplicated
        queue.chaos = None
        assert queue.push("y") is True
        assert queue.level == 3


class TestEventChaosEndToEnd:
    def test_heavy_event_drop_still_completes(self):
        # HFetch must degrade, not corrupt, when half its events vanish
        plan = FaultPlan(seed=13).event_drop(0.5)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        assert result.faults.get("event_drop", 0) > 0

    def test_duplicate_and_reorder_complete(self):
        plan = FaultPlan(seed=19).event_duplicate(0.3).event_reorder(0.3)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        assert runner.injector.chaos is not None
        assert runner.injector.chaos.duplicated > 0
        assert runner.injector.chaos.reordered > 0

    def test_event_chaos_replay_identical(self):
        plan = FaultPlan(seed=31).event_drop(0.2).event_duplicate(0.1).event_reorder(0.1)
        runner_a, result_a = run_hfetch(fault_plan=plan)
        runner_b, result_b = run_hfetch(fault_plan=plan)
        assert runner_a.injector.log == runner_b.injector.log
        assert result_a.row() == result_b.row()
        assert runner_a.injector.chaos.dropped == runner_b.injector.chaos.dropped


class TestPrefetchIOErrors:
    def test_certain_io_errors_fall_back_to_demand_fetch(self):
        plan = FaultPlan(seed=41).prefetch_io_error(1.0)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        pool = runner.prefetcher.server.io_clients
        # every movement failed at the device: after the bounded retries
        # each became a terminal demand-fetch fallback
        assert pool.moves_completed == 0
        assert pool.moves_failed > 0
        assert pool.move_retries > 0
        assert result.faults.get("prefetch_error", 0) > 0
        assert result.faults.get("prefetch_io_error", 0) > 0
        # nothing can be a hit if nothing was ever physically prefetched
        assert result.hit_ratio == 0.0

    def test_targeted_io_errors_only_hit_one_tier(self):
        plan = FaultPlan(seed=43).prefetch_io_error(1.0, tier="RAM")
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        pool = runner.prefetcher.server.io_clients
        injected = [d for _, k, d in runner.injector.log if k == "prefetch_io_error"]
        assert injected and all("-> RAM" in d for d in injected)
        # movements to the other tiers still complete
        assert pool.moves_completed > 0

    def test_partial_io_errors_keep_error_budget(self):
        plan = FaultPlan(seed=47).prefetch_io_error(0.3)
        runner, result = run_hfetch(fault_plan=plan)
        assert_no_lost_segments(runner, result)
        m = runner.prefetcher.server.metrics()
        assert m["io.move_retries"] > 0
        # retried moves eventually succeed often enough to keep prefetching
        assert m["io.moves_completed"] > 0
