"""Tests for controller stats and parameter validation."""

import pytest

import repro
from repro.common import ConfigurationError
from repro.controllers import ControllerStats, L0Params, L1Params, L2Params
from repro.core.cost import CostWeights
from repro.scenario import build_simulation
from repro.scenario.spec import PlantSpec, ScenarioSpec


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
        assert params.gamma_step == 0.05
        assert params.switching_weight == 8.0
        assert params.use_uncertainty_band

    def test_l2_paper_defaults(self):
        params = L2Params()
        assert params.gamma_step == 0.1
        assert params.switching_threshold == 0.02
        assert params.reconfiguration_weight == 11.0

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
            L2Params(gamma_step=0.0)

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


class TestRemovedSettings:
    """Settings that no decision read, or that every run set to one
    value, are unknown keys: a spec naming one fails in one line."""

    @pytest.mark.parametrize(
        "part, key, value",
        [
            # The L1 always costs the next two periods (N_L1 = 1).
            ("l1", "horizon", 2),
            # The L1 searches the radius-1 neighbourhood.
            ("l1", "alpha_radius", 2),
            # The L2 decides on the L1's period.
            ("l2", "period", 240.0),
            # The L2 enumerates the whole quantised simplex.
            ("l2", "exhaustive", False),
        ],
    )
    def test_unknown_key(self, part, key, value):
        spec = ScenarioSpec(plant=PlantSpec(kind="cluster"))
        with pytest.raises(ConfigurationError) as excinfo:
            spec.with_overrides(**{f"control.{part}": {key: value}})
        message = str(excinfo.value)
        assert message.startswith(f"invalid {part.upper()}Params overrides")
        assert f"'{key}'" in message and "\n" not in message

    # The L1's W is L1Params.switching_weight; the L0 cost reads Q and R.
    # S (control_change) priced the change of control in the generic
    # eq.-3 cost, which no decision used.
    @pytest.mark.parametrize("weight", ["switching", "control_change"])
    def test_removed_l0_weight_is_an_unknown_weight(self, weight):
        spec = ScenarioSpec(plant=PlantSpec(kind="cluster"))
        with pytest.raises(ConfigurationError) as excinfo:
            spec.with_overrides(**{"control.l0": {"weights": {weight: 8.0}}})
        message = str(excinfo.value)
        assert message.startswith("invalid L0Params weights")
        assert f"'{weight}'" in message and "\n" not in message


class TestL0Weights:
    """``control.l0.weights`` arrives from a spec as a dict of fields."""

    def test_a_weights_dict_becomes_cost_weights(self):
        params = L0Params(weights={"tracking": 50.0})
        assert params.weights == CostWeights(tracking=50.0, operating=1.0)
        assert L0Params.from_dict(params.to_dict()) == params

    def test_weights_of_another_type_rejected(self):
        with pytest.raises(ConfigurationError, match="^L0Params weights must be"):
            L0Params(weights=50.0)

    def test_tracking_override_runs(self):
        spec = repro.get_scenario("paper/fig4-module4", samples=4).with_overrides(
            **{"control.l0": {"weights": {"tracking": 50.0}}}
        )
        simulation = build_simulation(spec)
        assert simulation.l0_params.weights == CostWeights(tracking=50.0)
        result = simulation.run()
        assert result.steps == simulation.total_steps


class TestL1ParamsNeighbourhood:
    def test_negative_moves_and_an_empty_candidate_cap_are_rejected(self):
        with pytest.raises(ConfigurationError, match="gamma_neighborhood_moves must be >= 0"):
            L1Params(gamma_neighborhood_moves=-1)
        with pytest.raises(ConfigurationError, match="max_gamma_candidates must be >= 1"):
            L1Params(max_gamma_candidates=0)
