"""Cluster topology description.

A light structural model of the Ares-like testbed: a set of nodes with
roles (compute / burst-buffer / storage) connected through one shared
fabric.  The topology is consumed by :class:`~repro.network.comm.
NodeCommunicator` (which attaches link cost models) and by the cluster
builder in :mod:`repro.runtime.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterTopology"]


@dataclass(frozen=True)
class ClusterTopology:
    """Node counts and ranks-per-node of the simulated machine.

    Defaults mirror the paper's testbed: 64 compute nodes × 40 cores =
    2560 MPI ranks, 4 burst-buffer nodes, 24 storage nodes (§IV, Testbed).
    """

    compute_nodes: int = 64
    cores_per_node: int = 40
    burst_buffer_nodes: int = 4
    storage_nodes: int = 24

    def __post_init__(self) -> None:
        for name in ("compute_nodes", "cores_per_node", "burst_buffer_nodes", "storage_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def total_ranks(self) -> int:
        """Maximum concurrently schedulable MPI ranks."""
        return self.compute_nodes * self.cores_per_node

    def node_of_rank(self, rank: int) -> int:
        """Compute node hosting a given rank (block distribution)."""
        if rank < 0:
            raise ValueError("rank must be non-negative")
        return (rank // self.cores_per_node) % self.compute_nodes

    def scaled_to(self, ranks: int) -> "ClusterTopology":
        """A topology with just enough compute nodes for ``ranks``."""
        nodes = max(1, -(-ranks // self.cores_per_node))
        return ClusterTopology(
            compute_nodes=nodes,
            cores_per_node=self.cores_per_node,
            burst_buffer_nodes=self.burst_buffer_nodes,
            storage_nodes=self.storage_nodes,
        )

    def __str__(self) -> str:
        return (
            f"{self.compute_nodes} compute × {self.cores_per_node} cores, "
            f"{self.burst_buffer_nodes} BB, {self.storage_nodes} storage"
        )


#: The paper's Ares testbed.
ARES = ClusterTopology()
