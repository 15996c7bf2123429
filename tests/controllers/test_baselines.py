"""Tests for the threshold baseline controllers.

A baseline decides on the predicted arrival rate (requests/s) and c-hat
the engine hands it: ``act(rate, work, alpha_current)``.
"""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.cluster import paper_module_spec
from repro.controllers import (
    AlwaysOnMaxController,
    ThresholdDvfsController,
    ThresholdOnOffController,
    make_baseline,
)


WORK = 0.0175


class TestMakeBaseline:
    def test_builds_the_registered_policy_with_its_parameters(self):
        baseline = make_baseline("threshold-dvfs", paper_module_spec(), upper=0.9)
        assert isinstance(baseline, ThresholdDvfsController)
        assert baseline.upper == 0.9

    def test_an_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(ConfigurationError) as caught:
            make_baseline("pid", paper_module_spec())
        assert str(caught.value) == (
            "unknown baseline 'pid'; registered: "
            "['always-on-max', 'threshold-dvfs', 'threshold-on-off']"
        )


class TestAlwaysOnMax:
    def test_everything_on_at_max(self):
        controller = AlwaysOnMaxController(paper_module_spec())
        decision = controller.act(0.0, WORK, np.ones(4, dtype=bool))
        assert decision.alpha.sum() == 4
        assert np.array_equal(decision.frequency_indices, controller.max_indices)
        assert decision.gamma.sum() == pytest.approx(1.0)


class TestThresholdOnOff:
    def test_high_load_turns_machines_on(self):
        controller = ThresholdOnOffController(paper_module_spec())
        alpha_now = np.array([True, False, False, False])
        decision = controller.act(170.0, WORK, alpha_now)  # near capacity
        assert decision.alpha.sum() == 2  # adds exactly one per interval

    def test_low_load_turns_machines_off(self):
        controller = ThresholdOnOffController(paper_module_spec())
        decision = controller.act(5.0, WORK, np.ones(4, dtype=bool))
        assert decision.alpha.sum() == 3

    def test_keeps_at_least_one_machine(self):
        controller = ThresholdOnOffController(paper_module_spec())
        alpha = np.array([True, False, False, False])
        decision = controller.act(0.0, WORK, alpha)
        assert decision.alpha.sum() >= 1

    def test_frequencies_pinned_to_max(self):
        controller = ThresholdOnOffController(paper_module_spec())
        decision = controller.act(100.0, WORK, np.ones(4, dtype=bool))
        assert np.array_equal(decision.frequency_indices, controller.max_indices)

    def test_hysteresis_band_is_stable(self):
        """Load inside the band must not flip machines."""
        controller = ThresholdOnOffController(paper_module_spec())
        alpha = np.ones(4, dtype=bool)
        decision = controller.act(110.0, WORK, alpha)  # ~56% of full capacity
        assert np.array_equal(decision.alpha.astype(bool), alpha)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdOnOffController(paper_module_spec(), upper=1.5)
        with pytest.raises(ConfigurationError):
            ThresholdOnOffController(paper_module_spec(), upper=0.5, lower=0.6)

    def test_recovers_from_all_off(self):
        controller = ThresholdOnOffController(paper_module_spec())
        decision = controller.act(50.0, WORK, np.zeros(4, dtype=bool))
        assert decision.alpha.sum() >= 1


class TestThresholdDvfs:
    def test_scales_frequency_down_under_light_load(self):
        controller = ThresholdDvfsController(paper_module_spec())
        decision = controller.act(20.0, WORK, np.ones(4, dtype=bool))
        active = decision.alpha.astype(bool)
        assert np.any(decision.frequency_indices[active] < controller.max_indices[active])

    def test_keeps_max_frequency_under_heavy_load(self):
        controller = ThresholdDvfsController(paper_module_spec())
        decision = controller.act(190.0, WORK, np.ones(4, dtype=bool))
        active = decision.alpha.astype(bool)
        assert np.all(decision.frequency_indices[active] >= controller.max_indices[active] - 1)

    def test_frequency_covers_assigned_load(self):
        """Chosen settings keep each machine under the DVFS target."""
        spec = paper_module_spec()
        controller = ThresholdDvfsController(spec)
        rate = 100.0
        decision = controller.act(rate, WORK, np.ones(4, dtype=bool))
        for j, computer in enumerate(spec.computers):
            if not decision.alpha[j]:
                continue
            phi = computer.processor.scaling_factors[decision.frequency_indices[j]]
            service_rate = phi * computer.effective_speed_factor / WORK
            local = decision.gamma[j] * rate
            if local > 0:
                assert local / service_rate <= controller.dvfs_target + 0.05

    def test_dvfs_target_validated(self):
        with pytest.raises(ConfigurationError):
            ThresholdDvfsController(paper_module_spec(), dvfs_target=0.0)


class TestStatsInterface:
    def test_all_baselines_record_stats(self):
        for cls in (AlwaysOnMaxController, ThresholdOnOffController, ThresholdDvfsController):
            controller = cls(paper_module_spec())
            controller.act(1000.0 / 120.0, WORK, np.ones(4, dtype=bool))
            assert controller.stats.invocations == 1
