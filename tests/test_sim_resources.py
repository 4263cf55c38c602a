"""Unit tests for contention primitives (repro.sim.resources)."""

import pytest

from repro.sim.core import Environment, SimulationError
from repro.sim.resources import Resource, Store


# ---------------------------------------------------------------- Resource
def test_resource_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        Resource(Environment(), capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2 and res.queued == 1


def test_resource_release_grants_next_in_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    res.release(first)
    assert second.triggered and not third.triggered


def test_resource_release_of_queued_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)
    holder = res.request()
    waiting = res.request()
    res.release(waiting)  # cancel while queued
    assert res.queued == 0
    res.release(holder)
    assert not waiting.triggered  # cancelled, never granted


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(env, name):
        with res.request() as req:
            yield req
            log.append((env.now, name))
            yield env.timeout(1)

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert log == [(0.0, "a"), (1.0, "b")]


def test_resource_fairness_under_load():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, i):
        yield env.timeout(i * 0.001)  # arrive in index order
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(6):
        env.process(worker(env, i))
    env.run()
    assert order == list(range(6))


# ------------------------------------------------ Resource priority classes
def test_priority_resource_serves_demand_before_prefetch():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, name, prio, delay):
        yield env.timeout(delay)
        req = res.request(priority=prio)
        yield req
        order.append(name)
        yield env.timeout(1)
        res.release(req)

    env.process(worker(env, "holder", 0, 0))
    env.process(worker(env, "prefetch-1", Resource.PREFETCH, 0.1))
    env.process(worker(env, "demand-1", 0, 0.2))
    env.process(worker(env, "prefetch-2", Resource.PREFETCH, 0.3))
    env.process(worker(env, "demand-2", 0, 0.4))
    env.run()
    assert order == ["holder", "demand-1", "demand-2", "prefetch-1", "prefetch-2"]


@pytest.mark.parametrize("priority", [-1, 2, 5, 0.5])
def test_priority_resource_rejects_other_priorities(priority):
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(ValueError):
        res.request(priority=priority)
    assert res.count == 0 and res.queued == 0


def test_priority_resource_fifo_within_priority():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        req = res.request(priority=1)
        yield req
        order.append(name)
        yield env.timeout(1)
        res.release(req)

    env.process(worker(env, "hold", 0))
    env.process(worker(env, "first", 0.1))
    env.process(worker(env, "second", 0.2))
    env.run()
    assert order == ["hold", "first", "second"]


def test_priority_resource_cancel_queued():
    env = Environment()
    res = Resource(env, capacity=1)
    holder = res.request(priority=0)
    queued = res.request(priority=1)
    res.release(queued)
    assert res.queued == 0
    res.release(holder)
    assert not queued.triggered


# --------------------------------------------------------------------- Store
def test_store_put_get_fifo():
    env = Environment()
    st = Store(env)
    out = []

    def consumer(env):
        for _ in range(3):
            item = yield st.get()
            out.append(item)

    env.process(consumer(env))
    env.run()  # the consumer now waits
    for i in range(3):
        st.offer(i)
    env.run()
    assert out == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    st = Store(env)
    got = []

    def consumer(env):
        item = yield st.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        st.offer("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(5.0, "late")]


def test_store_level_and_max_level():
    env = Environment()
    st = Store(env)
    for i in range(4):
        st.offer(i)
    assert st.level == 4
    assert st.max_level == 4

    def consumer(env):
        yield st.get()

    env.process(consumer(env))
    env.run()
    assert st.level == 3
    assert st.max_level == 4


def test_store_multiple_consumers_each_get_distinct_items():
    env = Environment()
    st = Store(env)
    got = []

    def consumer(env):
        item = yield st.get()
        got.append(item)

    for _ in range(3):
        env.process(consumer(env))
    env.run()  # all three consumers now wait
    for i in range(3):
        st.offer(i)
    env.run()
    assert sorted(got) == [0, 1, 2]


# ------------------------------------------------------ Store fast paths
def test_store_offer_wakes_the_oldest_waiting_getter_now():
    env = Environment()
    st = Store(env)
    got = []

    def getter(env, name):
        item = yield st.get()
        got.append((env.now, name, item))

    for name in ("first", "second"):
        env.process(getter(env, name))
    env.run()  # both getters now wait

    def producer(env):
        yield env.timeout(2.0)
        st.offer("x")
        st.offer("y")

    env.process(producer(env))
    env.run()
    assert got == [(2.0, "first", "x"), (2.0, "second", "y")]
    assert st.level == 0 and st.max_level == 1


def test_store_get_on_a_buffered_store_is_fifo():
    env = Environment()
    st = Store(env)
    for i in range(5):
        st.offer(i)
    gets = [st.get() for _ in range(5)]
    assert all(g.triggered for g in gets) and st.level == 0
    env.run()
    assert [g.value for g in gets] == [0, 1, 2, 3, 4]


# ------------------------------------------------- Resource wait accounting
# "Resource" asks with the plain ``request()`` (demand class);
# "PriorityResource" asks every request in the prefetch class.
@pytest.mark.parametrize(
    "request_kwargs",
    [
        pytest.param({}, id="Resource"),
        pytest.param({"priority": Resource.PREFETCH}, id="PriorityResource"),
    ],
)
def test_resource_wait_accounting_over_mixed_requests(request_kwargs):
    """Uncontended requests are granted at once; queued ones when a slot
    frees, in arrival order; a cancelled queued request never is.  The
    same holds within either request class."""
    env = Environment()
    res = Resource(env, capacity=2)
    held = {}
    granted = {}

    def at(t, fn):
        def body(env):
            yield env.timeout(t)
            fn()

        env.process(body(env))

    def ask(name):
        held[name] = req = res.request(**request_kwargs)
        req.callbacks.append(lambda _ev: granted.setdefault(name, env.now))

    def give_back(name):
        res.release(held[name])

    at(0.0, lambda: ask("a"))  # uncontended
    at(0.5, lambda: ask("b"))  # uncontended
    at(1.0, lambda: ask("c"))  # queued
    at(1.5, lambda: ask("d"))  # queued, cancelled at 2.0
    at(1.75, lambda: ask("e"))  # queued
    at(2.0, lambda: give_back("d"))
    at(3.0, lambda: give_back("a"))  # c waited 2.0
    at(4.25, lambda: give_back("b"))  # e waited 2.5
    at(5.0, lambda: give_back("c"))
    at(5.5, lambda: ask("f"))  # uncontended
    env.run()
    assert granted == {"a": 0.0, "b": 0.5, "c": 3.0, "e": 4.25, "f": 5.5}
    assert not held["d"].triggered
    assert [held[n].processed for n in "abcef"] == [True] * 5
    assert res.count == 2 and res.queued == 0
