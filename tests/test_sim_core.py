"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_starts_at_initial_time():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    t = env.timeout(1.0, value="payload")
    env.run()
    assert t.value == "payload"


def test_event_value_unavailable_before_trigger():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_double_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_process_returns_value():
    env = Environment()

    def body(env):
        yield env.timeout(1)
        return 42

    proc = env.process(body(env))
    env.run()
    assert proc.value == 42


def test_process_receives_event_value():
    env = Environment()
    seen = []

    def body(env):
        v = yield env.timeout(1, value="hello")
        seen.append(v)

    env.process(body(env))
    env.run()
    assert seen == ["hello"]


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def body(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(body(env, "b", 2))
    env.process(body(env, "a", 1))
    env.process(body(env, "c", 3))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def body(env, name):
        yield env.timeout(1)
        order.append(name)

    for name in "abcd":
        env.process(body(env, name))
    env.run()
    assert order == list("abcd")


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    proc = env.process(parent(env))
    env.run()
    assert proc.value == "child-result"
    assert env.now == 3


def test_process_is_alive_lifecycle():
    env = Environment()

    def body(env):
        yield env.timeout(1)

    proc = env.process(body(env))
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_yielding_non_event_raises():
    env = Environment()

    def body(env):
        yield 42  # not an event

    env.process(body(env))
    with pytest.raises(SimulationError):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_interrupt_reaches_process():
    env = Environment()
    caught = []

    def body(env):
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            caught.append((env.now, exc.cause))

    proc = env.process(body(env))

    def killer(env):
        yield env.timeout(1)
        proc.interrupt("reason")

    env.process(killer(env))
    env.run()
    # the interrupt was delivered at t=1 (the abandoned timeout still
    # drains from the heap afterwards, which is fine)
    assert caught == [(1.0, "reason")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def body(env):
        yield env.timeout(1)

    proc = env.process(body(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def body(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(5)
        log.append(("done", env.now))

    proc = env.process(body(env))

    def killer(env):
        yield env.timeout(1)
        proc.interrupt()

    env.process(killer(env))
    env.run(until=proc)
    assert log == [("interrupted", 1.0), ("done", 6.0)]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def body(env):
        while True:
            yield env.timeout(1)

    env.process(body(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_its_value():
    env = Environment()

    def body(env):
        yield env.timeout(2)
        return "finished"

    proc = env.process(body(env))
    assert env.run(until=proc) == "finished"


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(1)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=0.5)


def test_run_until_unfired_event_raises_on_exhaustion():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_all_of_waits_for_every_event():
    env = Environment()

    def body(env, d):
        yield env.timeout(d)
        return d

    procs = [env.process(body(env, d)) for d in (1, 3, 2)]
    done = env.all_of(procs)
    env.run(until=done)
    assert env.now == 3
    assert set(done.value.values()) == {1, 2, 3}


def test_any_of_fires_on_first():
    env = Environment()

    def body(env, d):
        yield env.timeout(d)
        return d

    procs = [env.process(body(env, d)) for d in (5, 1, 3)]
    first = env.any_of(procs)
    env.run(until=first)
    assert env.now == 1


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = env.all_of([])
    assert done.triggered


def test_condition_mixed_environments_rejected():
    env1, env2 = Environment(), Environment()
    ev1, ev2 = env1.event(), env2.event()
    with pytest.raises(SimulationError):
        AllOf(env1, [ev1, ev2])


def test_failed_event_propagates_into_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def body(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(body(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_surfaces():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("lost"))
    with pytest.raises(RuntimeError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_schedule_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_determinism_same_script_same_trace():
    def script():
        env = Environment()
        log = []

        def body(env, name, d):
            for _ in range(3):
                yield env.timeout(d)
                log.append((env.now, name))

        env.process(body(env, "x", 1.5))
        env.process(body(env, "y", 2.0))
        env.run()
        return log

    assert script() == script()


# -------------------------------------------------------------- timeouts
def test_held_timeout_reference_is_never_recycled():
    """A fired Timeout someone still references keeps its value intact."""
    env = Environment()
    held = []

    def body(env):
        t = env.timeout(1, value="precious")
        held.append(t)
        got = yield t
        assert got == "precious"
        for _ in range(50):
            yield env.timeout(0.1)

    env.process(body(env))
    env.run()
    # the held timeout survived 50 further timeouts
    assert held[0].value == "precious"
    assert held[0].processed


def test_pooled_kernel_determinism_replay():
    """Two identical timeout-heavy scripts trace identically."""

    def script():
        env = Environment()
        log = []

        def body(env, name, d):
            for i in range(40):
                v = yield env.timeout(d, value=(name, i))
                log.append((env.now, v))

        env.process(body(env, "x", 1.5))
        env.process(body(env, "y", 2.0))
        env.process(body(env, "z", 0.25))
        env.run()
        return log

    assert script() == script()


def test_run_until_time_with_pooling():
    env = Environment()
    ticks = []

    def body(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(body(env))
    env.run(until=10.5)
    assert ticks == [float(i) for i in range(1, 11)]
    assert env.now == 10.5
