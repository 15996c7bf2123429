"""Tests for controller stats and parameter validation."""

import pytest

from repro.common import ConfigurationError
from repro.controllers import ControllerStats, L0Params, L1Params, L2Params


class TestControllerStats:
    def test_empty(self):
        stats = ControllerStats()
        assert stats.invocations == 0
        assert stats.mean_states == 0.0
        assert stats.total_seconds == 0.0
        assert stats.mean_seconds == 0.0

    def test_record_and_aggregate(self):
        stats = ControllerStats()
        stats.record(100, 0.5)
        stats.record(200, 1.5)
        assert stats.invocations == 2
        assert stats.mean_states == 150.0
        assert stats.total_seconds == pytest.approx(2.0)
        assert stats.mean_seconds == pytest.approx(1.0)

    def test_merged(self):
        a = ControllerStats()
        a.record(10, 0.1)
        b = ControllerStats()
        b.record(30, 0.3)
        merged = a.merged_with(b)
        assert merged.invocations == 2
        assert merged.mean_states == 20.0


class TestParams:
    def test_l0_paper_defaults(self):
        params = L0Params()
        assert params.target_response == 4.0
        assert params.horizon == 3
        assert params.period == 30.0
        assert params.weights.tracking == 100.0
        assert params.weights.operating == 1.0

    def test_l1_paper_defaults(self):
        params = L1Params()
        assert params.period == 120.0
        assert params.horizon == 1
        assert params.gamma_step == 0.05
        assert params.switching_weight == 8.0
        assert params.use_uncertainty_band

    def test_l2_paper_defaults(self):
        params = L2Params()
        assert params.period == 120.0
        assert params.gamma_step == 0.1
        assert params.exhaustive

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            L0Params(horizon=0)
        with pytest.raises(ConfigurationError):
            L0Params(target_response=-1.0)
        with pytest.raises(ConfigurationError):
            L1Params(gamma_step=0.0)
        with pytest.raises(ConfigurationError):
            L1Params(switching_weight=-1.0)
        with pytest.raises(ConfigurationError):
            L2Params(period=0.0)

    def test_l2_horizon_is_an_unknown_key(self):
        # The L2 always costs two periods; a spec that sets a horizon
        # fails like any other unknown key, in one line.
        from repro.scenario.spec import PlantSpec, ScenarioSpec

        spec = ScenarioSpec(plant=PlantSpec(kind="cluster"))
        with pytest.raises(ConfigurationError) as excinfo:
            spec.with_overrides(**{"control.l2": {"horizon": 2}})
        message = str(excinfo.value)
        assert message.startswith("invalid L2Params overrides")
        assert "'horizon'" in message and "\n" not in message
