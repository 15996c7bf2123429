"""Tests for the L0 cost weights and slack-variable cost."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.core import CostWeights, SlackResponseCost


class TestCostWeights:
    def test_paper_defaults(self):
        weights = CostWeights()
        assert weights.tracking == 100.0  # Q
        assert weights.operating == 1.0  # R

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            CostWeights(tracking=-1.0)


class TestSlackResponseCost:
    def test_slack_zero_below_target(self):
        # With Q = 1 and R = 0 the cost is the slack eps(r) alone.
        cost = SlackResponseCost(4.0, CostWeights(tracking=1.0, operating=0.0))
        assert cost.evaluate(3.0, 0.0) == 0.0
        assert cost.evaluate(4.0, 0.0) == 0.0

    def test_slack_linear_above_target(self):
        cost = SlackResponseCost(4.0, CostWeights(tracking=1.0, operating=0.0))
        assert cost.evaluate(6.5, 0.0) == pytest.approx(2.5)

    def test_paper_l0_cost(self):
        # J = Q*eps + R*psi with Q=100, R=1
        cost = SlackResponseCost(4.0, CostWeights(tracking=100.0, operating=1.0))
        assert cost.evaluate(5.0, 1.75) == pytest.approx(100.0 * 1.0 + 1.75)
        assert cost.evaluate(2.0, 1.75) == pytest.approx(1.75)

    def test_vectorised(self):
        cost = SlackResponseCost(4.0, CostWeights())
        out = cost.evaluate(np.array([3.0, 5.0]), np.array([1.0, 2.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)

    def test_rejects_negative_power(self):
        cost = SlackResponseCost(4.0, CostWeights())
        with pytest.raises(ConfigurationError):
            cost.evaluate(1.0, -1.0)

    def test_checked_power_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            SlackResponseCost.checked_power(np.array([0.75, -0.1]))

    def test_evaluate_checked_is_the_evaluate_formula(self):
        cost = SlackResponseCost(4.0, CostWeights(tracking=100.0, operating=1.0))
        responses = np.array([[-1.0, 3.9, 4.0, 4.1, 250.0]])
        powers = SlackResponseCost.checked_power([0.75, 1.0, 1.2, 1.5, 1.75])
        assert np.array_equal(
            cost.evaluate_checked(responses, powers), cost.evaluate(responses, powers)
        )

    def test_evaluate_checked_in_place_is_bit_identical(self):
        cost = SlackResponseCost(4.0, CostWeights(tracking=100.0, operating=1.3))
        rng = np.random.default_rng(5)
        responses = rng.uniform(-2.0, 60.0, (3, 40, 7))
        powers = SlackResponseCost.checked_power(rng.uniform(0.5, 2.0, (3, 1, 7)))
        expected = cost.evaluate_checked(responses, powers)
        buffer = responses.copy()
        priced = cost.evaluate_checked(buffer, powers, out=buffer)
        assert priced is buffer
        assert priced.tobytes() == expected.tobytes()

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            SlackResponseCost(0.0, CostWeights())

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=10),
    )
    def test_cost_non_negative(self, response, power):
        cost = SlackResponseCost(4.0, CostWeights())
        assert float(cost.evaluate(response, power)) >= 0.0

    @given(st.floats(min_value=0, max_value=100))
    def test_cost_monotone_in_response(self, response):
        cost = SlackResponseCost(4.0, CostWeights())
        assert float(cost.evaluate(response + 1.0, 1.0)) >= float(
            cost.evaluate(response, 1.0)
        )
