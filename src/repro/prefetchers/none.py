"""The no-prefetching baseline.

Every read is served straight from the file's origin tier (the PFS, or
the burst buffers for staged-in datasets) — "a No Prefetching solution
based purely on reading from the parallel file system" (§IV).  This is
the reference every figure normalises against.
"""

from __future__ import annotations

from repro.prefetchers.base import Prefetcher

__all__ = ["NoPrefetcher"]


class NoPrefetcher(Prefetcher):
    """Reads go to the origin; nothing is ever moved."""

    name = "None"
