"""Simulated cluster assembly.

Builds the Ares-like machine of the paper's testbed: a topology, the
DMSH tiers with per-experiment prefetch-cache capacities, the backing
PFS, and the network fabric — everything a
:class:`~repro.runtime.context.RuntimeContext` needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.collector import MetricsCollector
from repro.network.comm import LinkProfile, NodeCommunicator, RDMA
from repro.network.topology import ClusterTopology
from repro.runtime.context import RuntimeContext
from repro.sim.core import Environment
from repro.storage.devices import BURST_BUFFER, DRAM, NVME, PFS_DISK, DeviceProfile
from repro.storage.files import FileSystemModel
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.tier import StorageTier

__all__ = ["ClusterSpec", "SimulatedCluster"]

GB = 1 << 30


@dataclass(frozen=True)
class TierSpec:
    """One prefetch-cache tier: profile + experiment capacity."""

    profile: DeviceProfile
    capacity: float
    name: Optional[str] = None


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to instantiate the machine.

    The default tier capacities are the paper's Fig. 4(a) configuration
    (5 GB RAM + 15 GB NVMe + 20 GB burst buffers); experiments override
    them per figure.
    """

    topology: ClusterTopology = field(default_factory=ClusterTopology)
    tiers: tuple[TierSpec, ...] = (
        TierSpec(DRAM, 5 * GB),
        TierSpec(NVME, 15 * GB),
        TierSpec(BURST_BUFFER, 20 * GB),
    )
    link: LinkProfile = RDMA
    default_segment_size: int = 1 << 20
    #: Model the PFS as a striped server array (per-request parallelism
    #: across servers, like OrangeFS) instead of one aggregate pipe pool.
    striped_pfs: bool = False
    #: PFS stripe size when ``striped_pfs`` is enabled.
    pfs_stripe_size: int = 1 << 20

    def scaled_for(self, ranks: int) -> "ClusterSpec":
        """Spec with only as many compute nodes as ``ranks`` occupy."""
        return ClusterSpec(
            topology=self.topology.scaled_to(ranks),
            tiers=self.tiers,
            link=self.link,
            default_segment_size=self.default_segment_size,
            striped_pfs=self.striped_pfs,
            pfs_stripe_size=self.pfs_stripe_size,
        )


class SimulatedCluster:
    """The instantiated machine: env + tiers + hierarchy + fabric + fs."""

    def __init__(self, spec: Optional[ClusterSpec] = None, env: Optional[Environment] = None):
        self.spec = spec if spec is not None else ClusterSpec()
        self.env = env if env is not None else Environment()
        topo = self.spec.topology

        tiers: list[StorageTier] = []
        for tspec in self.spec.tiers:
            profile = tspec.profile
            # node-local devices aggregate over the compute nodes in use,
            # shared burst buffers over the BB nodes
            if profile.local:
                profile = profile.scaled(topo.compute_nodes)
            elif profile.name == BURST_BUFFER.name:
                profile = profile.scaled(topo.burst_buffer_nodes)
            tiers.append(
                StorageTier(self.env, profile, tspec.capacity, name=tspec.name)
            )
        if self.spec.striped_pfs:
            from repro.storage.striped import StripedTier

            backing: StorageTier = StripedTier(
                self.env,
                PFS_DISK,
                capacity=1e18,  # effectively unbounded: the PFS holds everything
                servers=topo.storage_nodes,
                stripe_size=self.spec.pfs_stripe_size,
                name="PFS",
            )
        else:
            backing = StorageTier(
                self.env,
                PFS_DISK.scaled(topo.storage_nodes),
                capacity=1e18,  # effectively unbounded: the PFS holds everything
                name="PFS",
            )
        self.hierarchy = StorageHierarchy(tiers, backing)
        self.comm = NodeCommunicator(self.env, topo, profile=self.spec.link)
        self.fs = FileSystemModel(default_segment_size=self.spec.default_segment_size)

    @property
    def topology(self) -> ClusterTopology:
        """The node layout."""
        return self.spec.topology

    def context(
        self,
        metrics: Optional[MetricsCollector] = None,
        seed: int = 2020,
        telemetry=None,
    ) -> RuntimeContext:
        """Fresh runtime context over this machine."""
        return RuntimeContext(
            env=self.env,
            fs=self.fs,
            hierarchy=self.hierarchy,
            comm=self.comm,
            topology=self.topology,
            metrics=metrics if metrics is not None else MetricsCollector(),
            seed=seed,
            telemetry=telemetry,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimulatedCluster {self.topology} | {self.hierarchy!r}>"
