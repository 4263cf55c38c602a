"""Benchmarks of the simulation substrate itself.

Unlike the figure benchmarks (which execute once and report tables),
these measure the wall-clock performance of the DES kernel and the
HFetch event pipeline with real statistical rounds — the numbers that
determine how large an experiment the reproduction can simulate.
"""

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.events.types import EventType, FileEvent
from repro.sim.core import Environment
from repro.sim.pipes import BandwidthPipe
from repro.sim.resources import Resource, Store
from repro.storage.files import FileSystemModel

MB = 1 << 20


def run_timeout_chains(processes: int, hops: int) -> float:
    env = Environment()

    def body(env):
        for _ in range(hops):
            yield env.timeout(0.01)

    for _ in range(processes):
        env.process(body(env))
    env.run()
    return env.now


def test_kernel_event_throughput(benchmark):
    """Raw DES throughput: 20k timeout events."""
    benchmark(run_timeout_chains, 200, 100)


def test_contended_resource_throughput(benchmark):
    """10k resource acquire/release cycles through one FCFS slot."""

    def run():
        env = Environment()
        res = Resource(env, capacity=4)

        def body(env):
            for _ in range(50):
                with res.request() as req:
                    yield req
                    yield env.timeout(0.001)

        for _ in range(200):
            env.process(body(env))
        env.run()

    benchmark(run)


def test_store_offer_to_waiting_get_throughput(benchmark):
    """10k Store offer → waiting-get hand-offs (the event queue's path
    when the monitor's daemons keep up)."""

    def run():
        env = Environment()
        store = Store(env)

        def consumer(env):
            for _ in range(10_000):
                yield store.get()

        def producer(env):
            for i in range(10_000):
                yield env.timeout(1e-4)
                store.offer(i)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()

    benchmark(run)


def test_uncontended_resource_throughput(benchmark):
    """10k uncontended request/release cycles (the auditor lock's path
    when no other daemon holds it)."""

    def run():
        env = Environment()
        res = Resource(env, capacity=1)

        def body(env):
            for _ in range(10_000):
                req = res.request()
                yield req
                res.release(req)

        env.process(body(env))
        env.run()

    benchmark(run)


def test_pipe_transfer_throughput(benchmark):
    """5k contended bandwidth-pipe transfers."""

    def run():
        env = Environment()
        pipe = BandwidthPipe(env, latency=1e-4, bandwidth=1e9, channels=8)
        for _ in range(5000):
            env.process(pipe.transfer(1 * MB))
        env.run()

    benchmark(run)


def _fold_events():
    config = HFetchConfig()
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/bench", 1 << 30)
    events = [
        FileEvent(EventType.READ, "/bench", offset=(i % 1024) * MB, size=MB,
                  timestamp=i * 1e-4, pid=i % 64)
        for i in range(10_000)
    ]
    return config, fs, events


def test_auditor_event_fold_rate(benchmark):
    """Folding 10k enriched read events in one ``on_events`` call."""
    config, fs, events = _fold_events()

    def run():
        auditor = FileSegmentAuditor(config, fs)
        auditor.on_events(events)
        auditor.drain_dirty()

    benchmark(run)


def test_auditor_event_fold_rate_per_event(benchmark):
    """The same 10k-event fold, one ``on_events`` call per event, as the
    hardware monitor's daemons run it."""
    config, fs, events = _fold_events()

    def run():
        auditor = FileSegmentAuditor(config, fs)
        on_events = auditor.on_events
        for ev in events:
            on_events((ev,))
        auditor.drain_dirty()

    benchmark(run)


def test_batch_scoring_rate(benchmark):
    """Vectorised Eq. 1 over 10k segments with 8-deep histories."""
    import numpy as np

    from repro.core.scoring import batch_scores

    n = 10_000
    rng = np.random.default_rng(7)
    ages = rng.uniform(0, 100, size=n * 8)
    refs = rng.integers(1, 20, size=n * 8)
    rows = np.repeat(np.arange(n), 8)

    benchmark(batch_scores, ages, refs, rows, n, 2.0)
