"""Unit tests for agents, the agent manager and the wired server."""

import pytest

from repro.core.agents import Agent, AgentManager, OpenMode
from repro.core.auditor import FileSegmentAuditor
from repro.core.config import HFetchConfig
from repro.core.io_clients import IOClientPool
from repro.core.server import HFetchServer
from repro.events.inotify import SimInotify
from repro.sim.core import Environment
from repro.storage.devices import BURST_BUFFER, DRAM, NVME, PFS_DISK
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.tier import StorageTier

MB = 1 << 20


def make_manager():
    env = Environment()
    config = HFetchConfig()
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", 8 * MB)
    auditor = FileSegmentAuditor(config, fs)
    ino = SimInotify(env)
    ram = StorageTier(env, DRAM, 4 * MB)
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    hier = StorageHierarchy([ram], pfs)
    io = IOClientPool(env, hier)
    mgr = AgentManager(env, auditor, ino, io)
    return env, mgr, auditor, ino, hier


def make_server(start=True):
    env = Environment()
    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", 8 * MB)
    ram = StorageTier(env, DRAM, 4 * MB)
    nvme = StorageTier(env, NVME, 8 * MB)
    bb = StorageTier(env, BURST_BUFFER, 8 * MB)
    pfs = StorageTier(env, PFS_DISK, 1e15, name="PFS")
    hier = StorageHierarchy([ram, nvme, bb], pfs)
    server = HFetchServer(env, HFetchConfig(engine_interval=0.05), fs, hier)
    if start:
        server.start()
    return env, server, fs, hier


# ------------------------------------------------------------------- agents
def test_connect_returns_same_agent_per_pid():
    env, mgr, *_ = make_manager()
    a1 = mgr.connect(1)
    a2 = mgr.connect(1)
    assert a1 is a2
    assert mgr.connected_agents == 1


def test_read_open_starts_epoch_and_installs_watch():
    env, mgr, auditor, ino, _h = make_manager()
    agent = mgr.connect(1)
    agent.open("/f", OpenMode.READ)
    assert auditor.in_epoch("/f")
    assert ino.active_watches == 1
    agent.close("/f")
    assert not auditor.in_epoch("/f")
    assert ino.active_watches == 0


def test_write_only_open_is_ignored():
    env, mgr, auditor, ino, _h = make_manager()
    agent = mgr.connect(1)
    agent.open("/f", OpenMode.WRITE)
    assert not auditor.in_epoch("/f")
    assert ino.active_watches == 0
    agent.close("/f")  # must not raise or end any epoch
    assert auditor.heatmaps.load("/f") is None  # an ended epoch saves one


def test_multiple_openers_single_watch():
    env, mgr, auditor, ino, _h = make_manager()
    a, b = mgr.connect(1), mgr.connect(2)
    a.open("/f")
    b.open("/f")
    assert ino.watches_installed == 1
    a.close("/f")
    assert ino.active_watches == 1
    b.close("/f")
    assert ino.active_watches == 0


def test_agent_read_emits_enriched_event():
    env, mgr, auditor, ino, _h = make_manager()
    agent = mgr.connect(1, node=3)
    agent.open("/f")
    agent.read("/f", offset=2 * MB, size=MB)
    assert ino.events_emitted == 2  # open + read
    assert agent.reads_intercepted == 1


def test_agent_misuse_rejected():
    env, mgr, *_ = make_manager()
    agent = mgr.connect(1)
    with pytest.raises(ValueError):
        agent.read("/f", 0, MB)  # not opened
    agent.open("/f")
    with pytest.raises(ValueError):
        agent.open("/f")  # double open
    with pytest.raises(ValueError):
        mgr.connect(2).close("/f")  # closing unopened


def test_locate_returns_tier_and_cost():
    env, mgr, auditor, ino, hier = make_manager()
    agent = mgr.connect(1)
    key = auditor.fs.segment_id("/f", 0)
    tier, cost = agent.locate(key)
    assert tier is None and cost > 0
    hier.place(key, MB, hier.tiers[0])
    tier, _cost = agent.locate(key)
    assert tier == "RAM"
    assert mgr.location_queries == 2


# ------------------------------------------------------------------- server
def test_server_start_stop_lifecycle():
    env, server, fs, hier = make_server(start=False)
    assert not server.started
    server.start()
    assert server.started
    server.start()  # idempotent
    server.stop()
    assert not server.started


def test_server_end_to_end_event_flow_places_data():
    env, server, fs, hier = make_server()
    agent = server.connect(pid=0, node=0)
    agent.open("/f")
    for t in range(3):
        agent.read("/f", offset=0, size=MB)
    env.run(until=1.0)
    assert server.auditor.events_processed >= 3
    assert hier.locate(fs.segment_id("/f", 0)) is not None
    hier.check_invariants()
    server.stop()


def test_server_write_invalidates_prefetched_data():
    env, server, fs, hier = make_server()
    agent = server.connect(pid=0)
    agent.open("/f")
    agent.read("/f", offset=0, size=MB)
    env.run(until=1.0)
    assert hier.locate(fs.segment_id("/f", 0)) is not None
    agent.write("/f", offset=0, size=MB)
    env.run(until=2.0)
    assert hier.locate(fs.segment_id("/f", 0)) is None
    server.stop()


def test_server_metrics_snapshot_keys():
    env, server, fs, hier = make_server()
    m = server.metrics()
    for key in (
        "inotify.events_emitted",
        "auditor.events_processed",
        "engine.passes",
        "engine.placed",
        "io.moves_completed",
        "agents.location_queries",
    ):
        assert key in m
    # a derived rate is not a counter (and can be inf): read it from the queue
    assert "consumption_rate" not in m
    server.stop()
