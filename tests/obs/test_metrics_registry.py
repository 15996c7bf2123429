"""Registry semantics: handles, families, histograms."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import Histogram, MetricsRegistry, global_registry


class TestHandles:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "help", level="l1")
        b = registry.counter("repro_x_total", level="l1")
        assert a is b
        c = registry.counter("repro_x_total", level="l2")
        assert c is not a

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad name")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_name", **{"bad-label": "x"})

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("repro_x_total").inc(-1)

    def test_a_later_lookup_fills_in_missing_help(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        registry.counter("repro_x_total", "Things counted.")
        registry.counter("repro_x_total", "Ignored once help is set.")
        (family,) = registry.families()
        assert family.help == "Things counted."

    def test_global_registry_is_singleton(self):
        assert global_registry() is global_registry()

    def test_gauge_moves_both_ways_and_a_set_wins(self):
        gauge = MetricsRegistry().gauge("repro_machines_on", "Machines on.")
        gauge.set(7)
        assert gauge.value == 7.0
        gauge.set(-2.5)
        assert gauge.value == -2.5


class TestHistogram:
    def test_moments(self):
        histogram = Histogram()
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)

    def test_every_histogram_tracks_the_median_p90_and_p99(self):
        histogram = MetricsRegistry().histogram("repro_x_seconds")
        assert list(histogram.sketches) == [0.5, 0.9, 0.99]
        for value in range(1, 102):
            histogram.observe(float(value))
        assert histogram.sketches[0.5].value == pytest.approx(51.0)
