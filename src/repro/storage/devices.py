"""Device profiles for the simulated DMSH.

The absolute numbers are calibrated to the *relative* characteristics of
the paper's Ares testbed (§IV, Testbed): node-local DRAM ≫ node-local
NVMe SSD ≫ shared burst buffers (over 40 Gbit RoCE) ≫ remote OrangeFS
PFS over 24 storage servers.  Every evaluation shape in the paper is
driven by these ratios, not by absolute seconds, so the reproduction
keeps the ratios honest and documents them here.

Rough calibration sources: DDR4 DRAM ~100 ns / ~10 GB/s per channel;
datacenter NVMe ~20 µs / ~2 GB/s; burst buffer = SSD behind one network
hop ~200 µs / ~1.2 GB/s per BB node; PFS = HDD/SSD RAID behind the
network and a parallel file system software stack ~2 ms / ~500 MB/s per
storage server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceProfile", "DRAM", "NVME", "BURST_BUFFER", "PFS_DISK"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class DeviceProfile:
    """Static performance characteristics of one device class.

    Attributes
    ----------
    name:
        Human-readable tier name (shows up in metrics and tables).
    latency:
        Per-operation setup latency in seconds (includes the network hop
        for remote devices).
    bandwidth:
        Sustained bandwidth per channel, bytes/second.
    channels:
        Concurrent operations a single device instance can service before
        requests queue.
    local:
        True for node-local devices (DRAM, NVMe) — local tiers do not
        cross the network and never interfere with remote-tier traffic.
    """

    name: str
    latency: float
    bandwidth: float
    channels: int = 1
    local: bool = True

    def scaled(self, count: int) -> "DeviceProfile":
        """Profile of ``count`` aggregated device instances.

        Aggregating N devices multiplies the available channels — each
        channel keeps its own bandwidth — which is how a pool of nodes or
        storage servers behaves for independent requests.
        """
        if count < 1:
            raise ValueError(f"device count must be >= 1, got {count}")
        return replace(self, channels=self.channels * count)

    def __str__(self) -> str:
        return self.name


#: Node-local DRAM prefetching space.
DRAM = DeviceProfile(name="RAM", latency=100e-9, bandwidth=10 * GB, channels=4, local=True)

#: Node-local NVMe SSD.
NVME = DeviceProfile(name="NVMe", latency=20e-6, bandwidth=2 * GB, channels=2, local=True)

#: Shared burst-buffer node (SSD behind one 40 Gbit network hop).  Like
#: the PFS, the latency is the effective client-visible cost of a small
#: request against a *shared* buffering service under load (network +
#: request scheduling + SSD), not the raw device latency.
BURST_BUFFER = DeviceProfile(
    name="BurstBuffer", latency=0.5e-3, bandwidth=1.2 * GB, channels=4, local=False
)

#: One parallel-file-system storage server (HDD RAID + PFS software stack
#: behind the network).  The Ares testbed runs 24 of these.  The per-op
#: latency is the *effective* client-visible latency of a small read
#: against a busy parallel file system (metadata + network + software
#: stack), which is what dominates 1 MB requests at scale — the PFS is
#: latency-bound, not bandwidth-bound, exactly as in the paper's runs.
PFS_DISK = DeviceProfile(
    name="PFS", latency=8e-3, bandwidth=500 * MB, channels=4, local=False
)
