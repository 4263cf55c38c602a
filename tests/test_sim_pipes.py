"""Unit tests for the bandwidth-pipe device model (repro.sim.pipes)."""

import pytest

from repro.sim.core import Environment, SimulationError
from repro.sim.pipes import BandwidthPipe


def make(env=None, latency=0.001, bandwidth=1e6, channels=1):
    return BandwidthPipe(env or Environment(), latency, bandwidth, channels)


def test_parameter_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        BandwidthPipe(env, latency=-1, bandwidth=1)
    with pytest.raises(SimulationError):
        BandwidthPipe(env, latency=0, bandwidth=0)


def test_service_time_is_latency_plus_transfer():
    pipe = make(latency=0.5, bandwidth=100)
    assert pipe.service_time(50) == pytest.approx(0.5 + 0.5)


def test_single_transfer_duration():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.001, bandwidth=1e6)
    env.process(pipe.transfer(1_000_000))
    env.run()
    assert env.now == pytest.approx(1.001)


def test_transfers_queue_on_one_channel():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.0, bandwidth=100, channels=1)
    env.process(pipe.transfer(100))  # 1s
    env.process(pipe.transfer(100))  # queues; finishes at 2s
    env.run()
    assert env.now == pytest.approx(2.0)


def test_transfers_run_concurrently_with_channels():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.0, bandwidth=100, channels=2)
    env.process(pipe.transfer(100))
    env.process(pipe.transfer(100))
    env.run()
    assert env.now == pytest.approx(1.0)


def test_negative_transfer_rejected():
    env = Environment()
    pipe = make(env)

    def body():
        yield from pipe.transfer(-1)

    env.process(body())
    with pytest.raises(SimulationError):
        env.run()


def test_stats_accumulate():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.0, bandwidth=1000, channels=1)
    env.process(pipe.transfer(500))
    env.process(pipe.transfer(500))
    env.run()
    assert pipe.stats.transfers == 2
    assert pipe.stats.bytes_moved == 1000
    assert pipe.stats.busy_time == pytest.approx(1.0)
    assert pipe.stats.wait_time == pytest.approx(0.5)  # second waited 0.5s


def test_stats_merge():
    a = make().stats
    b = make().stats
    a.transfers, a.bytes_moved = 2, 100
    b.transfers, b.bytes_moved = 3, 200
    a.merge(b)
    assert a.transfers == 5 and a.bytes_moved == 300


def test_in_flight_and_queued_counters():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.0, bandwidth=1, channels=1)
    env.process(pipe.transfer(10))
    env.process(pipe.transfer(10))
    env.run(until=0.5)
    assert pipe.in_flight == 1
    assert pipe.queued == 1


def test_transfer_returns_duration():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.25, bandwidth=100, channels=1)
    durations = []

    def body():
        d = yield from pipe.transfer(25)
        durations.append(d)

    env.process(body())
    env.run()
    assert durations == [pytest.approx(0.5)]


def test_fcfs_ordering_of_contended_transfers():
    env = Environment()
    pipe = BandwidthPipe(env, latency=0.0, bandwidth=100, channels=1)
    finish_order = []

    def body(name, delay, size):
        yield env.timeout(delay)
        yield from pipe.transfer(size)
        finish_order.append(name)

    env.process(body("first", 0.00, 100))
    env.process(body("second", 0.01, 10))
    env.process(body("third", 0.02, 10))
    env.run()
    assert finish_order == ["first", "second", "third"]
