"""HFetch configuration.

Collects every tunable the paper exposes:

* segment size (the prefetching unit, §III-C),
* the scoring decay base ``p`` and history depth ``k`` (Eq. 1),
* the placement-engine trigger — a time interval *and* a number of score
  changes, whichever fires first (§III-D: "to avoid excessive data
  movements ... two user-configurable conditions"),
* the daemon::engine thread split of the server (Fig. 3(a)).

The per-tier cache capacities (Fig. 4(a): 5 GB RAM + 15 GB NVMe + 20 GB
burst buffer) are the cluster's, in ``ClusterSpec.tiers``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HFetchConfig"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class HFetchConfig:
    """All HFetch tunables with the paper's defaults."""

    #: Prefetching unit in bytes (paper's running example uses 1 MB).
    #: The simulator does not read this field: segment sizes come from
    #: the file system (each file's ``segment_size``, else the cluster's
    #: ``ClusterSpec.default_segment_size``).
    segment_size: int = 1 * MB

    #: Decay base ``p >= 2`` of Eq. 1.
    decay_base: float = 2.0

    #: Maximum recorded access timestamps per segment (the ``k`` window).
    max_history: int = 16

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

    #: Per-event processing cost of one daemon thread, seconds.  25 µs
    #: yields the paper's >200K events/s with 6 daemons (Fig. 3(a)).
    event_service_time: float = 25e-6

    #: Serialised auditor critical section per event (lock + map update),
    #: seconds.  Limits daemon scaling sub-linearly, as observed.
    auditor_lock_time: float = 2e-6

    #: Per-plan-entry computation cost of the placement engine, seconds.
    placement_service_time: float = 5e-6

    #: I/O client worker threads per tier executing segment movements
    #: (the paper's Fig. 4(a) configuration gives HFetch four threads).
    io_workers_per_tier: int = 4

    #: Segments merged into one collective I/O-client operation
    #: (§III-A.5); amortises per-op device latency during movement.
    io_batch_segments: int = 8

    #: Demotion hysteresis: a newcomer only displaces a resident segment
    #: when its score exceeds the resident's by this factor.  Guards the
    #: engine against ping-pong movement between near-equal scores
    #: ("to avoid excessive data movements among the tiers", §III-D).
    demotion_hysteresis: float = 1.25

    #: Event-queue capacity (events buffered before drops).
    event_queue_capacity: int = 1 << 16

    #: Capacity of the auditor's dirty-score vector ("all updated scores
    #: are pushed by the auditor into a vector which the engine
    #: processes", §III-D).  Like the kernel's event queue, the buffer is
    #: bounded: score updates arriving while it is full are dropped (the
    #: statistics in the hash map survive; only the placement hint is
    #: lost).  A sluggish engine therefore *loses* the freshest
    #: placement candidates — the cost of low reactiveness in Fig. 3(b).
    dirty_vector_capacity: int = 1024

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

    #: Score discount per lookahead hop — a successor inherits this
    #: fraction of its predecessor's score per step of distance.
    lookahead_discount: float = 0.85

    #: Segment-scoring model: "eq1" (the paper's Eq. 1, default), "ewma"
    #: (online access-rate estimator) or "hybrid" — the pluggable-model
    #: extension of the paper's future work (repro.core.scoring_models).
    scoring_model: str = "eq1"

    #: Bounded retry budget of an I/O client per failed segment movement;
    #: once exhausted the placement is rolled back and the application
    #: demand-fetches from the origin.
    prefetch_max_retries: int = 2

    #: Retries against a down DHM shard before falling back to the
    #: staged-overlay / WAL read-through path.
    dhm_max_retries: int = 3

    #: Backoff latency per DHM retry, seconds (charged into the map's
    #: cost model while a shard is out).
    dhm_retry_backoff: float = 5e-6

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
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")
        if self.engine_interval <= 0:
            raise ValueError("engine_interval must be positive")
        if self.engine_update_threshold < 1:
            raise ValueError("engine_update_threshold must be >= 1")
        if self.daemon_threads < 1 or self.engine_threads < 1:
            raise ValueError("thread counts must be >= 1")
        if self.lookahead_depth < 0:
            raise ValueError("lookahead_depth must be >= 0")
        if not 0 < self.lookahead_discount <= 1:
            raise ValueError("lookahead_discount must be in (0, 1]")
        if self.prefetch_max_retries < 0:
            raise ValueError("prefetch_max_retries must be >= 0")
        if self.dhm_max_retries < 1:
            raise ValueError("dhm_max_retries must be >= 1")
        if self.dhm_retry_backoff < 0:
            raise ValueError("dhm_retry_backoff must be >= 0")
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
