"""The metric registry: log-bucket histograms and sampled gauges.

Everything here is deterministic and wall-clock free.  Histograms fold
observations made at instrumentation sites.  Gauges are not objects:
the registry holds a list of *gauge sources*, zero-argument callables
that each return a ``{dotted name: value}`` dict of live counters and
levels (the server's :meth:`~repro.core.server.HFetchServer.metrics`
and the runner's read counters).  The telemetry handle's sampler
(:meth:`~repro.telemetry.handle.Telemetry.start_sampler`) reads them at
a virtual-time cadence into the gauge timeline.  Histograms use fixed
log-scale buckets so percentile estimates are reproducible across runs
and machines (no reservoir sampling, no randomisation).
"""

from __future__ import annotations

import math
from collections import Counter as _ValueCounter
from typing import Any, Callable, Iterable, Optional

__all__ = ["Histogram", "MetricRegistry"]


class Histogram:
    """Fixed log-scale bucket histogram.

    Bucket ``0`` holds every observation ``<= lo``; bucket ``i >= 1``
    holds ``(lo * growth**(i-1), lo * growth**i]``; the last bucket is
    open-ended.  With the defaults (``lo=1e-7`` s, ``growth=2``, 64
    buckets) the range covers 100 ns .. ~9e11 s, ample for any virtual
    latency this simulation produces.

    :meth:`observe` sits on simulation hot paths, so it only appends to
    a pending list; observations are folded into buckets in batch (one
    ``log`` per *distinct* value — simulated latencies repeat heavily)
    when a statistic is read or the list reaches :data:`_FOLD_LIMIT`.
    """

    __slots__ = (
        "name", "lo", "growth", "_counts", "_count", "_total",
        "_vmin", "_vmax", "_log_growth", "_pending",
    )

    #: pending observations are folded past this length (bounds memory)
    _FOLD_LIMIT = 8192

    def __init__(self, name: str, lo: float = 1e-7, growth: float = 2.0, buckets: int = 64):
        if lo <= 0:
            raise ValueError(f"lo must be > 0, got {lo}")
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {buckets}")
        self.name = name
        self.lo = lo
        self.growth = growth
        self._counts = [0] * buckets
        self._count = 0
        self._total = 0.0
        self._vmin = math.inf
        self._vmax = -math.inf
        self._log_growth = math.log(growth)
        self._pending: list[float] = []

    def bucket_of(self, value: float) -> int:
        """Index of the bucket holding ``value``."""
        if value <= self.lo:
            return 0
        idx = 1 + int(math.log(value / self.lo) / self._log_growth)
        return min(idx, len(self._counts) - 1)

    def observe(self, value: float) -> None:
        """Fold one observation (deferred: appended, folded in batch)."""
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._FOLD_LIMIT:
            self._fold()

    def observe_many(self, values) -> None:
        """Record an iterable of observations (deferred, like
        :meth:`observe`) — the end-of-run fold path for metrics derived
        from trace streams."""
        pending = self._pending
        pending.extend(values)
        if len(pending) >= self._FOLD_LIMIT:
            self._fold()

    def observe_batch(self, value: float, n: int) -> None:
        """Fold ``n`` identical observations in O(1)."""
        if n <= 0:
            return
        self._counts[self.bucket_of(value)] += n
        self._count += n
        self._total += value * n
        if value < self._vmin:
            self._vmin = value
        if value > self._vmax:
            self._vmax = value

    def _fold(self) -> None:
        """Drain :attr:`_pending` into the bucket counts."""
        pending = self._pending
        if not pending:
            return
        # group identical values first: one bucket lookup per distinct
        # value, and deterministic regardless of arrival order
        for value, n in _ValueCounter(pending).items():
            self.observe_batch(value, n)
        pending.clear()

    @property
    def counts(self) -> list[int]:
        """Per-bucket observation counts."""
        self._fold()
        return self._counts

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count + len(self._pending)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        self._fold()
        return self._total

    @property
    def vmin(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        self._fold()
        return self._vmin

    @property
    def vmax(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        self._fold()
        return self._vmax

    def bucket_bounds(self) -> list[float]:
        """Upper bound of each bucket (the last is ``inf``)."""
        n = len(self._counts)
        bounds = [self.lo * self.growth**i for i in range(n - 1)]
        bounds.append(math.inf)
        return bounds

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        self._fold()
        return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate from the bucket counts.

        Returns the upper bound of the bucket where the cumulative count
        crosses ``q``, clamped to the observed min/max so ``quantile(0)``
        and ``quantile(1)`` are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._fold()
        if self._count == 0:
            return 0.0
        if q == 0.0:
            return self._vmin
        rank = q * self._count
        cumulative = 0
        bounds = self.bucket_bounds()
        for i, c in enumerate(self._counts):
            cumulative += c
            if cumulative >= rank:
                upper = bounds[i]
                return max(self._vmin, min(upper, self._vmax))
        return self._vmax

    def snapshot(self) -> dict:
        """Exportable state (non-empty buckets only, index → count)."""
        self._fold()
        return {
            "type": "histogram",
            "name": self.name,
            "count": self._count,
            "sum": self._total,
            "min": self._vmin if self._count else 0.0,
            "max": self._vmax if self._count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "lo": self.lo,
            "growth": self.growth,
            "buckets": {str(i): c for i, c in enumerate(self._counts) if c},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count} p99={self.quantile(0.99):.3g}>"


class MetricRegistry:
    """Named histograms, gauge sources, and the sampled gauge timeline.

    Layers call :meth:`histogram` at wiring time and hold the returned
    object; re-requesting a name returns the same instance.  Gauge
    values come from the sources added with :meth:`add_gauges`, merged
    in the order they were added.  The telemetry handle's sampler calls
    :meth:`record_sample` to append the current gauge values to
    :attr:`samples`, building the time series the exporters dump.
    """

    def __init__(self):
        self._histograms: dict[str, Histogram] = {}
        self._sources: list[Callable[[], dict]] = []
        #: ``(virtual_time, {gauge name: value})`` rows in sample order
        self.samples: list[tuple[float, dict]] = []

    # -- creation ----------------------------------------------------------
    def histogram(
        self, name: str, lo: float = 1e-7, growth: float = 2.0, buckets: int = 64
    ) -> Histogram:
        """Get-or-create a log-bucket histogram."""
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name, lo=lo, growth=growth, buckets=buckets)
            self._histograms[name] = h
        return h

    def add_gauges(self, source: Callable[[], dict]) -> None:
        """Add a gauge source: a callable returning ``{name: value}``."""
        self._sources.append(source)

    # -- access ------------------------------------------------------------
    def get(self, name: str) -> Optional[Histogram]:
        """The histogram registered under ``name``, or None."""
        return self._histograms.get(name)

    def histograms(self) -> Iterable[Histogram]:
        """All histograms in creation order."""
        return self._histograms.values()

    def gauges(self) -> dict:
        """Every gauge's current value, sources merged in order."""
        row: dict = {}
        for source in self._sources:
            row.update(source())
        return row

    def names(self) -> list[str]:
        """Histogram names in creation order."""
        return list(self._histograms)

    # -- sampling ----------------------------------------------------------
    def record_sample(self, when: float) -> dict:
        """Append one row of every gauge's current value at ``when``."""
        row = self.gauges()
        self.samples.append((when, row))
        return row

    def gauge_series(self, name: str) -> list[tuple[float, Any]]:
        """``(time, value)`` series of one gauge across recorded samples."""
        return [(when, row[name]) for when, row in self.samples if name in row]

    # -- export ------------------------------------------------------------
    def collect(self) -> list[dict]:
        """Snapshot every histogram (creation order), then every gauge."""
        records = [h.snapshot() for h in self._histograms.values()]
        records.extend(
            {"type": "gauge", "name": name, "value": value}
            for name, value in self.gauges().items()
        )
        return records

    def __len__(self) -> int:
        """Number of metrics: histograms plus gauges."""
        return len(self._histograms) + len(self.gauges())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricRegistry metrics={len(self)} samples={len(self.samples)}>"
