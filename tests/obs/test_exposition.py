"""Prometheus text rendering and its round-trip parser."""

import pytest

from helpers import parse_prometheus_text

from repro.obs import CONTENT_TYPE, MetricsRegistry, render_prometheus


def sample_registry():
    registry = MetricsRegistry()
    registry.counter("repro_steps_total", "Steps.").inc(42)
    registry.counter(
        "repro_decisions_total", "Decisions.", level="l1"
    ).inc(7)
    registry.counter(
        "repro_decisions_total", "Decisions.", level="l2"
    ).inc(3)
    registry.gauge("repro_power_watts", "Power.").set(123.5)
    histogram = registry.histogram("repro_response_seconds", "Responses.")
    for i in range(100):
        histogram.observe(0.01 * (i + 1))
    return registry


class TestRender:
    def test_type_lines_and_summary_kind(self):
        text = render_prometheus(sample_registry())
        assert "# TYPE repro_steps_total counter" in text
        assert "# TYPE repro_power_watts gauge" in text
        # Histograms expose live P² percentiles, so they render as the
        # Prometheus summary kind (quantile series + _sum + _count).
        assert "# TYPE repro_response_seconds summary" in text
        assert 'repro_response_seconds{quantile="0.9"}' in text
        assert "repro_response_seconds_sum" in text
        assert "repro_response_seconds_count 100" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_x_total", "h", path='we"ird\\name'
        ).inc()
        text = render_prometheus(registry)
        kinds, samples = parse_prometheus_text(text)
        key = ("repro_x_total", (("path", 'we"ird\\name'),))
        assert samples[key] == 1.0

    def test_content_type_is_prometheus_text(self):
        assert "text/plain" in CONTENT_TYPE
        assert "version=0.0.4" in CONTENT_TYPE


class TestRoundTrip:
    def test_every_sample_survives(self):
        registry = sample_registry()
        kinds, samples = parse_prometheus_text(render_prometheus(registry))
        assert kinds["repro_steps_total"] == "counter"
        assert kinds["repro_power_watts"] == "gauge"
        assert kinds["repro_response_seconds"] == "summary"
        assert samples[("repro_steps_total", ())] == 42.0
        assert samples[("repro_decisions_total", (("level", "l1"),))] == 7.0
        assert samples[("repro_decisions_total", (("level", "l2"),))] == 3.0
        assert samples[("repro_power_watts", ())] == 123.5
        assert samples[("repro_response_seconds_count", ())] == 100.0
        assert samples[("repro_response_seconds_sum", ())] == pytest.approx(
            sum(0.01 * (i + 1) for i in range(100))
        )
        median = samples[("repro_response_seconds", (("quantile", "0.5"),))]
        assert median == pytest.approx(0.5, abs=0.05)

    def test_empty_registry_renders_empty(self):
        text = render_prometheus(MetricsRegistry())
        kinds, samples = parse_prometheus_text(text)
        assert kinds == {}
        assert samples == {}
