"""Pin of the saturated Fig. 3(a) cell: exact event-pipeline outcomes.

32 client cores each push 4000 READ events open loop at 10k events/s
into a 6-daemon monitor (the paper's 6::2 split), far above what the
daemons consume, so the queue, the daemons' auditor lock and the fold
are all saturated.  The producer phases and start segments come from
seed 2020.  A host-side speedup of the queue, the kernel or the fold
must reproduce every pinned value exactly.
"""

import random

from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.monitor import HardwareMonitor
from repro.events.queue import EventQueue
from repro.events.types import EventType, FileEvent
from repro.sim.core import Environment
from repro.storage.files import FileSystemModel

MB = 1 << 20
SEED = 2020
CORES = 32
EVENTS_PER_CORE = 4000
PER_CORE_RATE = 10_000.0

#: recorded before the event-path fast paths (exact float reprs)
PINNED = {
    "produced": 128000,
    "consumed": 128000,
    "dropped": 0,
    "now": 0.5761226263696128,
    "consumption_rate": 222224.9228723325,
    "score_updates": 128000,
}


def saturated_run() -> dict:
    env = Environment()
    config = HFetchConfig(
        daemon_threads=6,
        engine_threads=2,
        segment_size=MB,
        engine_interval=1e9,
        engine_update_threshold=1 << 60,
    )
    fs = FileSystemModel(default_segment_size=MB)
    file = fs.create("/pfs/events-bench", size=1 << 30)
    auditor = FileSegmentAuditor(config, fs)
    auditor.start_epoch(file.file_id)
    queue = EventQueue(env, capacity=config.event_queue_capacity)
    monitor = HardwareMonitor(env, config, queue, auditor)
    monitor.start()
    rng = random.Random(SEED)
    interval = 1.0 / PER_CORE_RATE
    phases = [rng.random() * interval for _ in range(CORES)]
    starts = [rng.randrange(file.num_segments) for _ in range(CORES)]
    n = file.num_segments

    def producer(core):
        yield env.timeout(phases[core])
        for i in range(EVENTS_PER_CORE):
            yield env.timeout(interval)
            queue.push(
                FileEvent(
                    etype=EventType.READ,
                    file_id=file.file_id,
                    offset=((starts[core] + i) % n) * MB,
                    size=MB,
                    timestamp=env.now,
                    node=core,
                    pid=core,
                )
            )

    producers = [env.process(producer(c), name=f"client-{c}") for c in range(CORES)]
    env.run(until=env.all_of(producers))
    horizon = env.now + 60.0
    while (queue.level > 0 or monitor.file_events < queue.consumed) and (
        env.peek() <= horizon
    ):
        env.step()
    monitor.stop()
    return {
        "produced": queue.produced,
        "consumed": queue.consumed,
        "dropped": queue.dropped,
        "now": env.now,
        "consumption_rate": queue.consumption_rate(),
        "score_updates": auditor.score_updates,
    }


def test_saturated_fig3a_cell_matches_the_pin():
    assert saturated_run() == PINNED
