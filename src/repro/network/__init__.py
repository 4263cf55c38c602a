"""Node-to-node communication substrate.

Models the paper's node-to-node communicator (§III-A.6): metadata calls
(segment locations, mappings) and bulk data movement between compute
nodes, burst-buffer nodes and storage nodes, over either an RDMA/RoCE
fast path or a plain TCP path.  The real prototype uses Mellanox
``libibverbs``; here each path is a latency/bandwidth profile on shared
:class:`~repro.sim.pipes.BandwidthPipe` links, so metadata chatter and
bulk transfers contend for the same fabric exactly as they do on a real
40 Gbit network.
"""

from repro.network.comm import LinkProfile, NodeCommunicator, RDMA, TCP
from repro.network.topology import ClusterTopology

__all__ = [
    "ClusterTopology",
    "LinkProfile",
    "NodeCommunicator",
    "RDMA",
    "TCP",
]
