"""Tests for the L0 frequency controller."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.cluster import ComputerSpec, processor_profile
from repro.controllers import L0Controller, L0Params
from repro.core import CostWeights
from repro.forecast.ewma import EwmaFilter
from repro.sim.shard import c_hat


def _controller(profile="c4", **params):
    spec = ComputerSpec(name="C", processor=processor_profile(profile))
    return L0Controller(spec, L0Params(**params))


class TestDecide:
    def test_idle_system_picks_minimum_frequency(self):
        controller = _controller()
        decision = controller.decide(0.0, np.zeros(3), 0.0175)
        assert decision.frequency_index == 0

    def test_heavy_load_picks_maximum_frequency(self):
        controller = _controller()
        max_index = controller.phis.size - 1
        decision = controller.decide(500.0, np.full(3, 200.0), 0.0175)
        assert decision.frequency_index == max_index

    def test_moderate_load_picks_interior_frequency(self):
        controller = _controller()
        decision = controller.decide(0.0, np.full(3, 30.0), 0.0175)
        assert 0 < decision.frequency_index < controller.phis.size - 1

    def test_frequency_monotone_in_load(self):
        controller = _controller()
        indices = [
            controller.decide(0.0, np.full(3, rate), 0.0175).frequency_index
            for rate in (0.0, 15.0, 30.0, 45.0, 55.0)
        ]
        assert indices == sorted(indices)

    def test_states_explored_matches_formula(self):
        # Paper: sum_{q=1..N} |U|^q; C4 has 7 settings, N = 3.
        controller = _controller()
        decision = controller.decide(0.0, np.zeros(3), 0.0175)
        assert decision.states_explored == 7 + 49 + 343

    def test_horizon_one(self):
        controller = _controller(horizon=1)
        decision = controller.decide(0.0, np.zeros(1), 0.0175)
        assert decision.states_explored == 7

    def test_no_panic_before_unavoidable_surge(self):
        """Temporal reasoning: a surge at the horizon's end that an early
        speed-up cannot mitigate (empty queue, nothing to pre-drain) must
        not raise the *current* frequency — the lookahead optimises the
        trajectory instead of reacting to the worst forecast value."""
        controller = _controller()
        calm = controller.decide(0.0, np.zeros(3), 0.0175)
        surge = controller.decide(0.0, np.array([0.0, 0.0, 150.0]), 0.0175)
        assert surge.frequency_index == calm.frequency_index

    def test_longer_horizon_anticipates_sustained_accumulation(self):
        """A rate just above min-frequency capacity accumulates backlog
        that only crosses r* several periods out; the 3-step controller
        must plan a cheaper trajectory than greedy 1-step rollout."""
        spec = ComputerSpec(name="C", processor=processor_profile("c4"))
        long_view = L0Controller(spec, L0Params(horizon=3))
        greedy = L0Controller(spec, L0Params(horizon=1))
        rate, work, period = 20.0, 0.0175, 30.0

        def rollout(controller, horizon):
            queue, cost = 0.0, 0.0
            for _ in range(6):
                decision = controller.decide(queue, np.full(horizon, rate), work)
                phi = controller.phis[decision.frequency_index]
                queue, response, power = controller.model.predict(
                    queue, rate, work, float(phi), period
                )
                queue = float(queue)
                cost += float(controller.cost.evaluate(response, power))
            return cost

        assert rollout(long_view, 3) <= rollout(greedy, 1) + 1e-9

    def test_queue_backlog_raises_frequency(self):
        controller = _controller()
        empty = controller.decide(0.0, np.full(3, 10.0), 0.0175)
        backlog = controller.decide(3000.0, np.full(3, 10.0), 0.0175)
        assert backlog.frequency_index > empty.frequency_index

    def test_rejects_short_forecast(self):
        controller = _controller()
        with pytest.raises(ConfigurationError):
            controller.decide(0.0, np.zeros(2), 0.0175)

    def test_rejects_bad_work(self):
        controller = _controller()
        with pytest.raises(ConfigurationError):
            controller.decide(0.0, np.zeros(3), 0.0)

    def test_expected_cost_non_negative(self):
        controller = _controller()
        decision = controller.decide(10.0, np.full(3, 40.0), 0.0175)
        assert decision.expected_cost >= 0

    def test_stats_recorded(self):
        controller = _controller()
        controller.decide(0.0, np.zeros(3), 0.0175)
        controller.decide(0.0, np.zeros(3), 0.0175)
        assert controller.stats.invocations == 2
        assert controller.stats.mean_states == 399


class TestLookaheadConstants:
    def test_decisions_after_a_work_change_match_a_fresh_controller(self):
        controller = _controller()
        rates = np.array([30.0, 45.0, 60.0])
        for work in (0.0175, 0.021, 0.0175, 0.012, 0.012):
            for queue in (0.0, 7.5, 40.0):
                assert controller.decide(queue, rates, work) == _controller().decide(
                    queue, rates, work
                )


class TestQoSPowerTradeoff:
    def test_high_tracking_weight_prefers_speed(self):
        eager = _controller()
        frugal = ComputerSpec(name="C", processor=processor_profile("c4"))
        frugal = L0Controller(
            frugal,
            L0Params(weights=CostWeights(tracking=0.01, operating=10.0)),
        )
        rate = np.full(3, 50.0)
        assert (
            eager.decide(200.0, rate, 0.0175).frequency_index
            >= frugal.decide(200.0, rate, 0.0175).frequency_index
        )

    def test_response_target_respected_when_feasible(self):
        """Chosen setting should keep predicted response under r*."""
        controller = _controller()
        queue, rate, work = 50.0, 40.0, 0.0175
        decision = controller.decide(queue, np.full(3, rate), work)
        phi = controller.phis[decision.frequency_index]
        next_q, response, _ = controller.model.predict(
            queue, rate, work, phi, 30.0
        )
        assert float(response) <= controller.params.target_response + 1e-9


class TestWorkEstimate:
    """The c-hat a run hands its L0s, read from its step EWMA."""

    def test_work_estimate_default(self):
        assert c_hat(EwmaFilter(smoothing=0.1)) == pytest.approx(0.0175)

    def test_work_estimate_tracks_observations(self):
        work_filter = EwmaFilter(smoothing=0.1)
        work_filter.observe(0.02)
        assert c_hat(work_filter) == pytest.approx(0.02)
