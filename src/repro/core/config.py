"""HFetch configuration.

Holds the settings callers vary, with the paper's defaults:

* segment size (the prefetching unit, §III-C),
* the scoring decay base ``p`` (Eq. 1) and the scoring model,
* the placement-engine trigger — a time interval *and* a number of score
  changes, whichever fires first (§III-D: "to avoid excessive data
  movements ... two user-configurable conditions"),
* the daemon::engine thread split of the server (Fig. 3(a)),
* the sequencing lookahead depth, the event-queue capacity, the
  write-ahead log switch and the tie-breaking seed.

A figure, ablation, example or benchmark sets each of them.  Settings no
caller varies are named constants in the one module that uses them
(service times in :mod:`repro.core.monitor` and
:mod:`repro.core.placement`, retry budgets in :mod:`repro.core.io_clients`
and :mod:`repro.dhm.hashmap`, and so on), each with the reason for its
value.

The per-tier cache capacities (Fig. 4(a): 5 GB RAM + 15 GB NVMe + 20 GB
burst buffer) are the cluster's, in ``ClusterSpec.tiers``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.events.queue import EVENT_QUEUE_CAPACITY

__all__ = ["HFetchConfig"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class HFetchConfig:
    """The HFetch settings callers vary, with the paper's defaults."""

    #: Prefetching unit in bytes (paper's running example uses 1 MB).
    #: The simulator does not read this field: segment sizes come from
    #: the file system (each file's ``segment_size``, else the cluster's
    #: ``ClusterSpec.default_segment_size``).
    segment_size: int = 1 * MB

    #: Decay base ``p >= 2`` of Eq. 1.
    decay_base: float = 2.0

    #: Engine trigger: virtual seconds between periodic placement passes
    #: (paper example: every 1 sec).
    engine_interval: float = 1.0

    #: Engine trigger: number of accumulated score updates that forces a
    #: placement pass (paper default "medium" reactiveness: 100).
    engine_update_threshold: int = 100

    #: Hardware-monitor daemon threads consuming the event queue.
    daemon_threads: int = 6

    #: Placement-engine threads (concurrent movement planning).
    engine_threads: int = 2

    #: Event-queue capacity (events buffered before drops).
    event_queue_capacity: int = EVENT_QUEUE_CAPACITY

    #: Sequencing lookahead depth: when a segment becomes hot, its most
    #: likely successors (from the auditor's segment-sequencing map,
    #: falling back to the spatial next segment) are placed as well, up
    #: to this many segments ahead.  This is the "logical map of which
    #: segments are connected to one another" (§III-A.2) driving the
    #: *what to prefetch* decision.  Deep lookahead combined with the
    #: per-hop discount realises the paper's tier pipelining: near-future
    #: segments score high (→ RAM), far-future ones score low (→ NVMe,
    #: burst buffers) and are promoted as the read front approaches.
    lookahead_depth: int = 16

    #: Segment-scoring model: "eq1" (the paper's Eq. 1, default), "ewma"
    #: (online access-rate estimator) or "hybrid" — the pluggable-model
    #: extension of the paper's future work (repro.core.scoring_models).
    scoring_model: str = "eq1"

    #: Write-ahead-log the server's hash maps so shard outages can
    #: recompute statistics from the log (off by default: the WAL costs
    #: a pickle per update).
    dhm_wal: bool = False

    #: Random seed for tie-breaking placement (paper: equal scores are
    #: placed randomly).
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.segment_size <= 0:
            raise ValueError("segment_size must be positive")
        if self.decay_base < 2:
            raise ValueError(f"decay base p must satisfy p >= 2 (paper Eq. 1), got {self.decay_base}")
        if self.engine_interval <= 0:
            raise ValueError("engine_interval must be positive")
        if self.engine_update_threshold < 1:
            raise ValueError("engine_update_threshold must be >= 1")
        if self.daemon_threads < 1 or self.engine_threads < 1:
            raise ValueError("thread counts must be >= 1")
        if self.lookahead_depth < 0:
            raise ValueError("lookahead_depth must be >= 0")
        from repro.core.scoring_models import SCORING_MODELS

        if self.scoring_model not in SCORING_MODELS:
            raise ValueError(
                f"unknown scoring model {self.scoring_model!r}; "
                f"available: {sorted(SCORING_MODELS)}"
            )

    # -- convenience -----------------------------------------------------------
    def with_reactiveness(self, level: str) -> "HFetchConfig":
        """The paper's Fig. 3(b) sensitivity presets.

        ``high`` triggers on every score update, ``medium`` every 100,
        ``low`` every 1024.  The interval trigger is pushed out so the
        count trigger dominates, as in the experiment.
        """
        thresholds = {"high": 1, "medium": 100, "low": 1024}
        try:
            threshold = thresholds[level]
        except KeyError:
            raise ValueError(f"reactiveness must be one of {sorted(thresholds)}") from None
        return replace(self, engine_update_threshold=threshold)
