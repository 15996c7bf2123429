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

    def test_merge_sums_each_category_into_a_new_meter(self):
        a = EnergyMeter(base_energy=1.0, dynamic_energy=2.0, transient_energy=3.0)
        b = EnergyMeter(base_energy=10.0, dynamic_energy=20.0, transient_energy=30.0)
        merged = a.merged_with(b)
        assert merged == EnergyMeter(
            base_energy=11.0, dynamic_energy=22.0, transient_energy=33.0
        )
        assert merged is not a and merged is not b
        assert a == EnergyMeter(1.0, 2.0, 3.0)
        assert b == EnergyMeter(10.0, 20.0, 30.0)
