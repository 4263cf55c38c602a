"""Measurement and reporting.

:class:`~repro.metrics.collector.MetricsCollector` accumulates the two
quantities every figure of the paper reports — end-to-end execution time
(seconds) and hit ratio (%) — plus the per-tier, per-process and
prefetcher-internal counters the analysis sections discuss.
:mod:`repro.metrics.report` renders fixed-width tables for the bench
output and EXPERIMENTS.md.
"""

from repro.metrics.collector import MetricsCollector, RunResult
from repro.metrics.report import format_table, format_run_results

__all__ = [
    "MetricsCollector",
    "RunResult",
    "format_run_results",
    "format_table",
]
