"""Prometheus text exposition: headers, labels, histograms, byte stability."""

from repro.obs.prom import render_prometheus
from repro.obs.registry import MetricsRegistry


def build():
    registry = MetricsRegistry()
    c = registry.counter("repro_hops_total", "RPC hops", ("node",))
    c.inc(3, node="node00")
    c.inc(node="node01")
    g = registry.gauge("repro_headroom", "headroom")
    g.set(0.25)
    h = registry.histogram("repro_lat", "latency", (1.0, 10.0))
    h.observe(0.5)
    h.observe(4.0)
    return registry


class TestRendering:
    def test_help_and_type_headers(self):
        text = render_prometheus(build())
        assert "# HELP repro_hops_total RPC hops\n" in text
        assert "# TYPE repro_hops_total counter\n" in text
        assert "# TYPE repro_headroom gauge\n" in text
        assert "# TYPE repro_lat histogram\n" in text

    def test_labelled_samples(self):
        text = render_prometheus(build())
        assert 'repro_hops_total{node="node00"} 3\n' in text
        assert 'repro_hops_total{node="node01"} 1\n' in text
        assert "repro_headroom 0.25\n" in text

    def test_histogram_buckets_sum_count(self):
        text = render_prometheus(build())
        assert 'repro_lat_bucket{le="1"} 1\n' in text
        assert 'repro_lat_bucket{le="10"} 2\n' in text
        assert 'repro_lat_bucket{le="+Inf"} 2\n' in text
        assert "repro_lat_sum 4.5\n" in text
        assert "repro_lat_count 2\n" in text

    def test_unlabelled_empty_counter_renders_zero(self):
        registry = MetricsRegistry()
        registry.counter("repro_nothing_total", "never incremented")
        assert "repro_nothing_total 0\n" in render_prometheus(registry)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x", "x", ("detail",)).inc(detail='say "hi"\n')
        assert 'x{detail="say \\"hi\\"\\n"} 1\n' in render_prometheus(registry)

    def test_rendering_is_byte_stable(self):
        assert render_prometheus(build()) == render_prometheus(build())
        assert "\r" not in render_prometheus(build())
