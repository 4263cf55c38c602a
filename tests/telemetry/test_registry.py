"""Gauge sources, deterministic log-bucket histograms, sampling."""

import math

import pytest

from repro.telemetry import Histogram, MetricRegistry


class TestGauge:
    def test_source_callable_wins(self):
        # a gauge's value is whatever its source reads at sampling time
        state = {"v": 1}
        reg = MetricRegistry()
        reg.add_gauges(lambda: {"x": state["v"]})
        state["v"] = 42
        assert reg.gauges() == {"x": 42}
        assert reg.collect() == [{"type": "gauge", "name": "x", "value": 42}]


class TestHistogram:
    def test_bucket_layout(self):
        h = Histogram("lat", lo=1.0, growth=2.0, buckets=4)
        # bucket 0: <=1; 1: (1,2]; 2: (2,4]; 3: (4, inf)
        assert h.bucket_of(0.5) == 0
        assert h.bucket_of(1.0) == 0
        assert h.bucket_of(1.5) == 1
        assert h.bucket_of(3.0) == 2
        assert h.bucket_of(1e9) == 3
        assert h.bucket_bounds() == [1.0, 2.0, 4.0, math.inf]

    def test_stats(self):
        h = Histogram("lat", lo=1.0, growth=2.0, buckets=8)
        for v in (0.5, 1.5, 3.0, 3.0, 7.0):
            h.observe(v)
        assert h.count == 5
        assert h.total == 15.0
        assert h.mean == 3.0
        assert h.vmin == 0.5
        assert h.vmax == 7.0

    def test_quantiles_deterministic_and_clamped(self):
        h = Histogram("lat", lo=1.0, growth=2.0, buckets=8)
        for v in (0.5, 1.5, 3.0, 3.0, 7.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.5  # clamped to vmin
        assert h.quantile(1.0) == 7.0  # clamped to vmax
        # p50: cumulative crosses 2.5 in bucket (2,4] -> upper bound 4.0
        assert h.quantile(0.5) == 4.0
        assert h.quantile(0.99) == 7.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.quantile(0.99) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0

    def test_snapshot_sparse_buckets(self):
        h = Histogram("lat", lo=1.0, growth=2.0, buckets=8)
        h.observe(3.0)
        h.observe(3.5)
        snap = h.snapshot()
        assert snap["buckets"] == {"2": 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("x", lo=0)
        with pytest.raises(ValueError):
            Histogram("x", growth=1.0)
        with pytest.raises(ValueError):
            Histogram("x", buckets=1)


class TestMetricRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricRegistry()
        assert reg.histogram("h") is reg.histogram("h")
        reg.histogram("a")
        reg.add_gauges(lambda: {"g": 1})
        assert len(reg) == 3
        assert reg.names() == ["h", "a"]
        assert reg.get("h") is reg.histogram("h")
        assert reg.get("g") is None  # gauges are values, not objects

    def test_record_sample_captures_gauges_only(self):
        reg = MetricRegistry()
        reg.histogram("h").observe(1.0)
        reg.add_gauges(lambda: {"g": 5, "shared": 1})
        reg.add_gauges(lambda: {"g2": 6, "shared": 2})  # later sources win
        row = reg.record_sample(when=1.25)
        assert row == {"g": 5, "shared": 2, "g2": 6}
        assert reg.samples == [(1.25, row)]
        assert reg.gauge_series("g") == [(1.25, 5)]

    def test_collect_snapshots_everything(self):
        reg = MetricRegistry()
        reg.add_gauges(lambda: {"g": 0})
        reg.histogram("h")
        kinds = [s["type"] for s in reg.collect()]
        assert kinds == ["histogram", "gauge"]
