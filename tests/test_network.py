"""Unit tests for topology and the node communicator (repro.network)."""

import pytest

from repro.network.comm import NodeCommunicator, RDMA, TCP
from repro.network.topology import ClusterTopology
from repro.sim.core import Environment


# ---------------------------------------------------------------- topology
def test_default_topology_matches_testbed():
    t = ClusterTopology()
    assert t.compute_nodes == 64
    assert t.cores_per_node == 40
    assert t.total_ranks == 2560
    assert t.burst_buffer_nodes == 4
    assert t.storage_nodes == 24


def test_topology_validation():
    with pytest.raises(ValueError):
        ClusterTopology(compute_nodes=0)


def test_node_of_rank_block_distribution():
    t = ClusterTopology(compute_nodes=4, cores_per_node=10)
    assert t.node_of_rank(0) == 0
    assert t.node_of_rank(9) == 0
    assert t.node_of_rank(10) == 1
    assert t.node_of_rank(39) == 3


def test_node_of_rank_negative_rejected():
    with pytest.raises(ValueError):
        ClusterTopology().node_of_rank(-1)


def test_scaled_to():
    t = ClusterTopology()
    scaled = t.scaled_to(100)
    assert scaled.compute_nodes == 3
    assert scaled.storage_nodes == t.storage_nodes


# -------------------------------------------------------------------- comm
def test_bulk_transfer_costs_bandwidth_time():
    env = Environment()
    comm = NodeCommunicator(env, ClusterTopology(), profile=RDMA)
    nbytes = 50_000_000

    def body():
        yield from comm.bulk_transfer(0, 1, nbytes)

    env.process(body())
    env.run()
    expected = RDMA.message_latency + nbytes / RDMA.bandwidth
    assert env.now == pytest.approx(expected)
    assert comm.data_bytes == nbytes


def test_rdma_faster_than_tcp_per_message():
    assert RDMA.message_latency < TCP.message_latency


def test_fabric_contention_across_transfers():
    env = Environment()
    profile = RDMA
    # a 1-compute-node job has max(links, 1) = profile.links fabric channels
    topo = ClusterTopology(compute_nodes=1)
    comm = NodeCommunicator(env, topo, profile=profile)
    assert comm.fabric.channels == profile.links
    nbytes = 100_000_000
    for _ in range(profile.links + 1):  # one more than the link count
        env.process(comm.bulk_transfer(0, 1, nbytes))
    env.run()
    single = profile.message_latency + nbytes / profile.bandwidth
    assert env.now == pytest.approx(2 * single, rel=0.01)


def test_fabric_scales_with_compute_nodes():
    env = Environment()
    big = NodeCommunicator(env, ClusterTopology(compute_nodes=64))
    small = NodeCommunicator(env, ClusterTopology(compute_nodes=1))
    assert big.fabric.channels > small.fabric.channels
