"""Score-vs-reality drift tracking (is Eq. 1 still predicting access?).

Each engine pass snapshot (captured by the provenance log) records the
head of the hotness-sorted plan: ``(t, ((sid, score), ...))``.  Offline,
every snapshot is scored by the Kendall rank correlation (tau-b, tie
corrected) between the Eq. 1 score ordering and the segments' *actual*
next-access order after ``t`` — a segment the heatmap ranks hot should
be accessed soon.  tau ≈ +1 means the decay parameters (``p``, ``n``)
track the workload; a downward *trend* across the run is the signature
of misconfigured decay (scores going stale faster than they are
refreshed), which is exactly what the report surfaces: the tau time
series, its mean, first-half vs second-half means, and a least-squares
slope per unit virtual time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.diagnosis.provenance import ReadIndex

__all__ = ["kendall_tau", "analyze_drift"]


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of every pair ``i < j`` of ``n`` items
    (read-only: every caller shares the cached pair)."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Kendall tau-b of two paired sequences (tie corrected).

    Counts concordant, discordant and tied pairs over all ``n(n-1)/2``
    pairs at once with numpy, so time and memory are O(n²).  A snapshot
    holds at most ``ProvenanceLog.SNAPSHOT_WIDTH`` (64) entries, 2016
    pairs.  On a 2-core VM that costs about 20 µs per snapshot (a
    pure-Python pair loop took 0.3 ms) and 5 ms for a run's 256.
    Equal values tie (equal infinities included); otherwise a pair's
    direction is ``x[j] > x[i]``.  The counts are exact integers, so tau
    is the same float however they were counted.  Returns ``None`` when
    either sequence is constant (tau undefined).
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("paired sequences must have equal length")
    if n < 2:
        return None
    i, j = _pairs(n)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xi, xj, yi, yj = x[i], x[j], y[i], y[j]
    tied_x = xi == xj
    tied_y = yi == yj
    untied = ~(tied_x | tied_y)
    concordant = int(np.count_nonzero(untied & ((xj > xi) == (yj > yi))))
    discordant = int(np.count_nonzero(untied)) - concordant
    n0 = n * (n - 1) // 2
    denom = math.sqrt(
        (n0 - int(np.count_nonzero(tied_x))) * (n0 - int(np.count_nonzero(tied_y)))
    )
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


def analyze_drift(prov, reads: Optional[ReadIndex] = None) -> dict:
    """Tau-per-snapshot series plus trend statistics.

    ``reads`` is the log's read index when the caller already built one
    (:meth:`DiagnosisReport.derive` shares it with the oracle).
    """
    index = reads if reads is not None else ReadIndex.of(prov)
    snapshots = prov.snapshots
    read_sid = index.sid
    read_t = index.t.tolist()
    # reads are in time order: those after snapshot k are reads[after[k]:]
    after = np.searchsorted(index.t, [t for t, _e in snapshots], side="right").tolist()
    taus: list = [None] * len(snapshots)
    # sid -> its first read time among reads[swept:], filled backwards
    next_read: dict = {}
    swept = len(read_sid)
    inf = math.inf
    for k in sorted(range(len(snapshots)), key=after.__getitem__, reverse=True):
        start = after[k]
        if start < swept:
            next_read.update(
                zip(reversed(read_sid[start:swept]), reversed(read_t[start:swept]))
            )
            swept = start
        entries = snapshots[k][1]
        if len(entries) < 2:
            continue
        # imminence: negative next-access time, so that a *positive* tau
        # means hot scores predict soon accesses; never-read-again
        # segments tie at the far end
        upcoming = next_read.get
        taus[k] = kendall_tau(
            [s for _sid, s in entries], [-upcoming(sid, inf) for sid, _s in entries]
        )
    series: list[tuple[float, float, int]] = [  # (t, tau, n)
        (t, tau, len(entries))
        for (t, entries), tau in zip(snapshots, taus)
        if tau is not None
    ]

    out: dict = {
        "snapshots": len(prov.snapshots),
        "scored_snapshots": len(series),
        "series": [(round(t, 6), round(tau, 4), n) for t, tau, n in series],
    }
    if not series:
        return out
    taus = [tau for _t, tau, _n in series]
    out["tau_mean"] = sum(taus) / len(taus)
    half = len(taus) // 2
    if half:
        out["tau_first_half_mean"] = sum(taus[:half]) / half
        out["tau_second_half_mean"] = sum(taus[half:]) / (len(taus) - half)
    # least-squares slope of tau over virtual time (drift per second)
    ts = [t for t, _tau, _n in series]
    t_mean = sum(ts) / len(ts)
    tau_mean = out["tau_mean"]
    var = sum((t - t_mean) ** 2 for t in ts)
    if var > 0.0:
        out["tau_slope_per_s"] = (
            sum((t - t_mean) * (tau - tau_mean) for t, tau in zip(ts, taus)) / var
        )
    return out
