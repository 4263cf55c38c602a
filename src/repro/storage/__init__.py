"""The Deep Memory and Storage Hierarchy (DMSH) substrate.

Models the multi-tiered storage environment the paper targets (§II-A):
node-local DRAM prefetching space, node-local NVMe, shared burst-buffer
nodes, and a remote parallel file system — each an independent device
class with its own latency, bandwidth and capacity, assembled into an
ordered :class:`~repro.storage.hierarchy.StorageHierarchy` with an
*exclusive* residency model (a segment lives in exactly one tier,
paper §III-D / §V-a).

Also provides the file/segment vocabulary (:mod:`repro.storage.segments`,
:mod:`repro.storage.files`).  The baseline prefetchers keep their own
caches in :class:`repro.prefetchers.util.ManagedCache`, charging their
I/O against these tiers.
"""

from repro.storage.devices import (
    BURST_BUFFER,
    DRAM,
    NVME,
    PFS_DISK,
    DeviceProfile,
)
from repro.storage.files import FileSystemModel, SimFile
from repro.storage.hierarchy import StorageHierarchy, TierFullError
from repro.storage.segments import (
    SegmentKey,
    segment_bounds,
    segment_count,
)
from repro.storage.striped import StripedTier
from repro.storage.tier import StorageTier

__all__ = [
    "BURST_BUFFER",
    "DRAM",
    "DeviceProfile",
    "FileSystemModel",
    "NVME",
    "PFS_DISK",
    "SegmentKey",
    "SimFile",
    "StorageHierarchy",
    "StorageTier",
    "StripedTier",
    "TierFullError",
    "segment_bounds",
    "segment_count",
]
