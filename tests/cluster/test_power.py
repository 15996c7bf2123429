"""Tests for the energy meter behind every computer's energy split."""

import pytest

from repro.cluster import EnergyMeter
from repro.common import ConfigurationError


class TestEnergyMeter:
    def test_interval_itemises_base_and_dynamic_energy(self):
        meter = EnergyMeter()
        meter.add_interval(base_power=0.75, dynamic_power=1.0, dt=30.0)
        meter.add_interval(base_power=0.75, dynamic_power=0.5, dt=30.0)
        assert meter.base_energy == pytest.approx(45.0)
        assert meter.dynamic_energy == pytest.approx(45.0)
        assert meter.transient_energy == 0.0
        assert meter.total == pytest.approx(90.0)

    def test_transient_counts_apart_from_the_draw(self):
        meter = EnergyMeter()
        meter.add_transient(12.5)
        meter.add_transient(12.5)
        assert meter.transient_energy == 25.0
        assert (meter.base_energy, meter.dynamic_energy) == (0.0, 0.0)
        assert meter.total == 25.0

    def test_negative_interval_input_rejected_and_nothing_added(self):
        meter = EnergyMeter(base_energy=3.0)
        for base, dynamic, dt, name in [
            (1.0, 1.0, -1.0, "dt"),
            (-0.1, 1.0, 30.0, "base_power"),
            (1.0, -0.1, 30.0, "dynamic_power"),
        ]:
            with pytest.raises(ConfigurationError, match=f"^{name} must be >= 0"):
                meter.add_interval(base, dynamic, dt)
        assert meter == EnergyMeter(base_energy=3.0)

    def test_negative_transient_rejected(self):
        with pytest.raises(ConfigurationError, match="^energy must be >= 0"):
            EnergyMeter().add_transient(-1.0)
