"""Registry semantics: handles, families, histograms, reset."""

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

    def test_global_registry_is_singleton(self):
        assert global_registry() is global_registry()

    def test_gauge_moves_both_ways_and_a_set_wins(self):
        gauge = MetricsRegistry().gauge("repro_machines_on", "Machines on.")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2.0
        gauge.set(7)
        gauge.dec(9.5)
        assert gauge.value == -2.5


class TestHistogram:
    def test_moments(self):
        histogram = Histogram(quantiles=(0.5,))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.05)

    def test_untracked_quantile_raises(self):
        histogram = Histogram(quantiles=(0.5,))
        with pytest.raises(ConfigurationError):
            histogram.quantile(0.9)


class TestReset:
    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc()
        registry.reset()
        assert registry.families() == []
