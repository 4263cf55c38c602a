"""Node-to-node communicator (metadata + bulk transfer cost model).

Two message classes travel the fabric (paper §III-A.6):

* *metadata calls* — segment locations, mappings, score updates.  Small,
  latency-bound; the RDMA path makes them nearly free.
* *data movement* — fetching segment bytes from a remote node's tier.
  Bandwidth-bound; contends on the shared fabric.

The communicator owns one shared :class:`~repro.sim.pipes.BandwidthPipe`
per direction-less fabric (40 Gbit in the testbed) and charges every
remote operation through it, so heavy prefetching traffic visibly slows
application reads that also cross the network — one of the effects the
paper's engine-reactiveness experiment (Fig. 3(b)) measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.network.topology import ClusterTopology
from repro.sim.core import Environment
from repro.sim.pipes import BandwidthPipe

__all__ = ["LinkProfile", "RDMA", "TCP", "NodeCommunicator"]

GBIT = 1_000_000_000 / 8  # bytes/second in one gigabit


@dataclass(frozen=True)
class LinkProfile:
    """Per-message cost model of one network path."""

    name: str
    message_latency: float  # per-message software+wire latency, seconds
    bandwidth: float  # bytes/second per link
    links: int = 4  # parallel fabric links (switch ports serving the job)


#: RDMA/RoCE fast path (libibverbs-class latencies on 40 Gbit).
RDMA = LinkProfile(name="RDMA", message_latency=3e-6, bandwidth=40 * GBIT, links=4)

#: Plain TCP path over the same 40 Gbit fabric.
TCP = LinkProfile(name="TCP", message_latency=50e-6, bandwidth=25 * GBIT, links=4)


class NodeCommunicator:
    """Cost model for node-to-node metadata and data movement."""

    def __init__(
        self,
        env: Environment,
        topology: ClusterTopology,
        profile: LinkProfile = RDMA,
    ):
        self.env = env
        self.topology = topology
        self.profile = profile
        # every compute node brings its own NIC, so the fabric's aggregate
        # concurrency grows with the job (a non-blocking switch assumed)
        links = max(profile.links, topology.compute_nodes)
        self.fabric = BandwidthPipe(
            env,
            latency=profile.message_latency,
            bandwidth=profile.bandwidth,
            channels=links,
            name=f"fabric-{profile.name}",
        )
        # instrumentation
        self.data_transfers = 0
        self.data_bytes = 0

    # -- bulk data -------------------------------------------------------------
    def bulk_transfer(self, src_node: int, dst_node: int, nbytes: int) -> Generator:
        """Process generator: move ``nbytes`` between two nodes."""
        if src_node == dst_node:
            return 0.0
        duration = yield from self.fabric.transfer(nbytes)
        self.data_transfers += 1
        self.data_bytes += nbytes
        return duration

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<NodeCommunicator {self.profile.name} "
            f"bulk={self.data_transfers}>"
        )
