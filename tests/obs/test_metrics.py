"""Metrics registry: counters, gauges and fixed-bucket histograms."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_monotonic(self):
        c = Counter("jobs")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_to_dict(self):
        c = Counter("jobs")
        c.inc(2)
        assert c.to_dict() == {"type": "counter", "value": 2}


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("rate")
        assert g.value is None
        g.set(10.0)
        g.set(12.5)
        assert g.value == 12.5
        assert g.to_dict() == {"type": "gauge", "value": 12.5}


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("lat", edges=[0.01, 0.1, 1.0])
        for v in (0.005, 0.01, 0.05, 0.5, 2.0):
            h.observe(v)
        # bisect_left: a value equal to an edge lands in that edge's bucket.
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5
        assert h.sum == pytest.approx(2.565)
        assert h.mean == pytest.approx(0.513)

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", edges=[0.1, 0.1])
        with pytest.raises(ValueError):
            Histogram("bad", edges=[])

    def test_quantile_bound(self):
        h = Histogram("lat", edges=[1.0, 2.0, 4.0])
        for v in (0.5, 0.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile_bound(0.5) == 1.0
        assert h.quantile_bound(1.0) == 4.0
        assert Histogram("empty", edges=[1.0]).quantile_bound(0.5) is None
        h.observe(100.0)  # overflow bucket
        assert h.quantile_bound(1.0) is None
        with pytest.raises(ValueError):
            h.quantile_bound(1.5)

    def test_to_dict_roundtrips_counts(self):
        h = Histogram("lat", edges=[1.0])
        h.observe(0.5)
        d = h.to_dict()
        assert d["counts"] == [1, 0] and d["total"] == 1


class TestRegistry:
    def test_create_on_first_touch_stable_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs")
        b = reg.counter("jobs")
        assert a is b
        assert "jobs" in reg and reg["jobs"] is a

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_edge_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=[1.0, 2.0])
        reg.histogram("h", edges=[1.0, 2.0])  # same edges: fine
        with pytest.raises(ValueError):
            reg.histogram("h", edges=[1.0, 3.0])

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.gauge("alpha").set(1.0)
        reg.histogram("mid", edges=[1.0]).observe(0.5)
        assert list(reg.to_dict()) == ["alpha", "mid", "zeta"]
        text = reg.render_text()
        assert "alpha" in text and "counter" in text and "histogram" in text
