"""Tests for the Module plant container."""

import numpy as np
import pytest

from repro.common import ControlError
from repro.cluster import Module, paper_module_spec


def _module(**kwargs):
    return Module(paper_module_spec(), **kwargs)


class TestModule:
    def test_initial_state_all_on(self):
        module = _module()
        assert all(c.is_serving and c.accepts_work for c in module.computers)

    def test_apply_configuration_turns_machines_off(self):
        module = _module()
        module.apply_configuration(np.array([1, 1, 0, 0]))
        # Off computers drain first; with empty queues they drop to OFF on
        # the next step.
        module.step_fluid(0.0, 0.0175, 30.0, np.array([0.5, 0.5, 0.0, 0.0]))
        assert [c.accepts_work for c in module.computers] == [True, True, False, False]

    def test_apply_configuration_shape_checked(self):
        with pytest.raises(ControlError):
            _module().apply_configuration(np.array([1, 1]))

    def test_step_splits_by_gamma(self):
        module = _module()
        results = module.step_fluid(100.0, 0.0175, 30.0, np.array([1.0, 0.0, 0.0, 0.0]))
        assert results[0].arrivals == pytest.approx(100.0)
        assert results[1].arrivals == 0.0

    def test_step_gamma_shape_checked(self):
        with pytest.raises(ControlError):
            _module().step_fluid(10.0, 0.0175, 30.0, np.array([1.0]))

    def test_total_power_and_energy(self):
        module = _module()
        results = module.step_fluid(0.0, 0.0175, 30.0, np.full(4, 0.25))
        power = module.total_power(results)
        assert power == pytest.approx(4 * 1.75)
        energy = sum(c.energy.total for c in module.computers)
        assert energy == pytest.approx(power * 30.0)

    def test_switch_counts(self):
        module = _module()
        module.apply_configuration(np.array([1, 1, 1, 0]))
        module.step_fluid(0.0, 0.0175, 30.0, np.array([0.4, 0.3, 0.3, 0.0]))
        module.apply_configuration(np.array([1, 1, 1, 1]))
        on, off = module.switch_counts()
        assert on == 1
        assert off == 1

    def test_queue_lengths_vector(self):
        module = _module()
        assert module.queue_lengths.shape == (4,)
