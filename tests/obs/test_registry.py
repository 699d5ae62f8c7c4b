"""Counter / gauge / histogram semantics and registry bookkeeping."""

import pytest

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates_per_label_set(self, registry):
        c = registry.counter("hops", "hops", ("node",))
        c.inc(node="a")
        c.inc(2, node="a")
        c.inc(node="b")
        assert c.value(node="a") == 3
        assert c.value(node="b") == 1
        assert c.value(node="missing") == 0

    def test_counters_cannot_decrease(self, registry):
        c = registry.counter("hops", "hops")
        with pytest.raises(SimulationError, match="cannot decrease"):
            c.inc(-1)

    def test_label_mismatch_is_rejected(self, registry):
        c = registry.counter("hops", "hops", ("node",))
        with pytest.raises(SimulationError, match="expected labels"):
            c.inc(nod="typo")

    def test_series_sorted_by_label_values(self, registry):
        c = registry.counter("hops", "hops", ("node",))
        c.inc(node="b")
        c.inc(node="a")
        assert [key for key, _ in c.series()] == [("a",), ("b",)]


class TestGauge:
    def test_set_and_add(self, registry):
        g = registry.gauge("headroom", "headroom", ("node",))
        g.set(0.5, node="a")
        g.add(-0.2, node="a")
        assert g.value(node="a") == pytest.approx(0.3)


class TestHistogram:
    def test_cumulative_le_buckets(self, registry):
        h = registry.histogram("lat", "lat", (1.0, 5.0, 10.0))
        for value in (0.5, 3.0, 7.0, 100.0):
            h.observe(value)
        ((_, (counts, inf_count, total)),) = h.series()
        assert counts == [1, 2, 3]  # cumulative: le=1, le=5, le=10
        assert inf_count == 4
        assert total == pytest.approx(110.5)
        assert h.count() == 4
        assert h.sum() == pytest.approx(110.5)

    def test_unsorted_buckets_are_rejected(self, registry):
        with pytest.raises(SimulationError, match="sorted"):
            registry.histogram("lat", "lat", (5.0, 1.0))


class TestRegistry:
    def test_duplicate_names_are_rejected(self, registry):
        registry.counter("x", "x")
        with pytest.raises(SimulationError, match="already registered"):
            registry.gauge("x", "x")

    def test_get_unknown_metric_raises(self, registry):
        with pytest.raises(SimulationError, match="no metric"):
            registry.get("nope")

    def test_all_metrics_sorted_by_name(self, registry):
        registry.counter("b", "b")
        registry.gauge("a", "a")
        assert [m.name for m in registry.all_metrics()] == ["a", "b"]
