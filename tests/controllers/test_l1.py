"""Tests for the L1 module controller and its abstraction map."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.cluster import paper_module_spec
from repro.controllers import L1Controller, L1Params


@pytest.fixture(scope="module")
def module_spec():
    return paper_module_spec()


@pytest.fixture(scope="module")
def trained_l1(module_spec):
    """One trained L1 controller shared by this test module."""
    return L1Controller(module_spec)


def _fresh_l1(trained_l1, module_spec, **params):
    """Reuse the expensive trained maps with fresh params/stats."""
    return L1Controller(
        module_spec, behavior_maps=trained_l1.maps, params=L1Params(**params)
    )


class TestComputerBehaviorMap:
    def test_full_grid_trained(self, trained_l1):
        for behavior_map in trained_l1.maps:
            assert behavior_map.table.coverage == 1.0

    def test_cost_increases_with_load(self, trained_l1):
        behavior_map = trained_l1.maps[3]  # C4
        low, _ = behavior_map.cost_and_next_queue(0.0, 10.0, 0.0175)
        high, _ = behavior_map.cost_and_next_queue(0.0, 55.0, 0.0175)
        assert high > low

    def test_overload_grows_queue(self, trained_l1):
        behavior_map = trained_l1.maps[3]
        _, next_queue = behavior_map.cost_and_next_queue(0.0, 75.0, 0.0175)
        assert next_queue > 0.0

    def test_idle_cost_is_base_plus_min_dynamic(self, trained_l1):
        behavior_map = trained_l1.maps[3]
        cost, next_queue = behavior_map.cost_and_next_queue(0.0, 0.0, 0.0175)
        spec = behavior_map.spec
        phi_min = spec.processor.scaling_factors[0]
        expected = (spec.base_power + phi_min**2) * behavior_map.substeps
        assert cost == pytest.approx(expected, rel=0.01)
        assert next_queue == 0.0


class TestL1Decide:
    def test_light_load_turns_machines_off(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool),
            rate_hat=10.0, rate_next=10.0, delta=0.0, work=0.0175,
        )
        assert decision.alpha.sum() < 4

    def test_heavy_load_keeps_machines_on(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool),
            rate_hat=180.0, rate_next=180.0, delta=0.0, work=0.0175,
        )
        assert decision.alpha.sum() == 4

    def test_rising_forecast_boots_machine(self, trained_l1, module_spec):
        """Proactive power-on: low load now, surge forecast next period."""
        l1 = _fresh_l1(trained_l1, module_spec)
        alpha_now = np.array([False, False, False, True])
        decision = l1.decide(
            np.zeros(4), alpha_now,
            rate_hat=20.0, rate_next=150.0, delta=0.0, work=0.0175,
        )
        assert decision.alpha.sum() > 1

    def test_gamma_sums_to_one(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool),
            rate_hat=100.0, rate_next=100.0, delta=5.0, work=0.0175,
        )
        assert decision.gamma.sum() == pytest.approx(1.0)

    def test_gamma_zero_for_non_serving(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        alpha_now = np.array([True, True, True, False])
        decision = l1.decide(
            np.zeros(4), alpha_now,
            rate_hat=100.0, rate_next=100.0, delta=0.0, work=0.0175,
        )
        # Machine 3 is off now: even if switched on, it boots this period
        # and must receive no load.
        assert decision.gamma[3] == 0.0

    def test_alpha_gamma_consistency(self, trained_l1, module_spec):
        """The paper's constraint alpha_j >= gamma_j (no load to off)."""
        l1 = _fresh_l1(trained_l1, module_spec)
        for rate in (20.0, 80.0, 160.0):
            decision = l1.decide(
                np.full(4, 5.0), np.ones(4, dtype=bool),
                rate_hat=rate, rate_next=rate, delta=10.0, work=0.0175,
            )
            assert np.all(decision.alpha >= (decision.gamma > 0))

    def test_never_turns_everything_off(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        alpha_now = np.array([True, False, False, False])
        decision = l1.decide(
            np.zeros(4), alpha_now,
            rate_hat=0.0, rate_next=0.0, delta=0.0, work=0.0175,
        )
        assert decision.alpha.sum() >= 1

    def test_states_explored_positive_and_recorded(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool),
            rate_hat=100.0, rate_next=100.0, delta=5.0, work=0.0175,
        )
        assert decision.states_explored > 50
        assert l1.stats.invocations == 1

    def test_shape_validation(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        with pytest.raises(ConfigurationError):
            l1.decide(np.zeros(3), np.ones(4, dtype=bool), 1.0, 1.0, 0.0, 0.0175)


class TestChatteringMitigation:
    def test_band_provisions_robust_capacity(self, trained_l1, module_spec):
        """With the load right at a machine-count boundary, a wide
        uncertainty band must provision at least as many machines as the
        point forecast (the lambda+delta sample sees the overload)."""
        l1 = _fresh_l1(trained_l1, module_spec)
        alpha_now = np.array([False, False, True, True])
        rate = 100.0  # just under C3+C4 capacity (~110 req/s)
        point = l1.decide(
            np.zeros(4), alpha_now, rate_hat=rate, rate_next=rate,
            delta=0.0, work=0.0175,
        )
        banded = l1.decide(
            np.zeros(4), alpha_now, rate_hat=rate, rate_next=rate,
            delta=30.0, work=0.0175,
        )
        assert banded.alpha.sum() >= point.alpha.sum()

    def test_full_mitigation_reduces_switches(self, trained_l1, module_spec):
        """The paper's pipeline (Kalman-smoothed forecasts + band + W)
        must switch machines less than a naive reactive variant driven by
        raw noisy rates with no switching penalty."""
        rng = np.random.default_rng(0)
        base_rate = 95.0
        noisy_rates = np.clip(
            base_rate + rng.normal(0, 20.0, 80), 0.0, None
        )

        mitigated = _fresh_l1(trained_l1, module_spec, switching_weight=8.0)
        naive = _fresh_l1(
            trained_l1, module_spec,
            switching_weight=0.0, use_uncertainty_band=False,
        )

        def count_switches(l1, use_pipeline):
            alpha = np.ones(4, dtype=bool)
            switches = 0
            for rate in noisy_rates:
                if use_pipeline:
                    l1.observe(rate * 120.0, 0.0175)
                    decision = l1.act(np.zeros(4), alpha)
                else:
                    decision = l1.decide(
                        np.zeros(4), alpha, rate_hat=rate, rate_next=rate,
                        delta=0.0, work=0.0175,
                    )
                new_alpha = decision.alpha.astype(bool)
                switches += int(np.sum(new_alpha != alpha))
                alpha = new_alpha
            return switches

        assert count_switches(mitigated, True) <= count_switches(naive, False)

    def test_switching_weight_damps_oscillation(self, trained_l1, module_spec):
        """Higher W must never produce more switch-ons."""
        def run(weight):
            l1 = _fresh_l1(trained_l1, module_spec, switching_weight=weight)
            rng = np.random.default_rng(1)
            alpha = np.ones(4, dtype=bool)
            switch_ons = 0
            for _ in range(50):
                rate = max(90.0 + rng.normal(0, 25.0), 0.0)
                decision = l1.decide(
                    np.zeros(4), alpha,
                    rate_hat=rate, rate_next=rate, delta=0.0, work=0.0175,
                )
                new_alpha = decision.alpha.astype(bool)
                switch_ons += int(np.sum(new_alpha & ~alpha))
                alpha = new_alpha
            return switch_ons

        assert run(weight=32.0) <= run(weight=0.0)

    def test_alpha_radius_two_widens_neighbourhood(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec, alpha_radius=2)
        alpha_now = np.array([False, False, False, True])
        decision = l1.decide(
            np.zeros(4), alpha_now,
            rate_hat=20.0, rate_next=190.0, delta=0.0, work=0.0175,
        )
        # Radius 2 can boot two machines in one period for a large surge.
        assert decision.alpha.sum() >= 2


class TestActAndObserve:
    def test_act_runs_with_internal_filters(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        for _ in range(5):
            l1.observe(arrival_count=12000.0, measured_work=0.0175)
        decision = l1.act(np.zeros(4), np.ones(4, dtype=bool))
        assert decision.gamma.sum() == pytest.approx(1.0)

    def test_substep_count(self, trained_l1):
        assert trained_l1.substep_count() == 4


def _observed_l1(trained_l1, module_spec, **params):
    """A fresh L1 that has seen a noisy run of interval counts."""
    l1 = _fresh_l1(trained_l1, module_spec, **params)
    rng = np.random.default_rng(3)
    for count in 9000.0 + rng.normal(0.0, 900.0, 24):
        l1.observe(arrival_count=float(count), measured_work=0.0175)
    return l1


class TestSetPoints:
    def test_forecasts_and_band_become_rates(self, trained_l1, module_spec):
        l1 = _observed_l1(trained_l1, module_spec)
        forecasts = l1.predictor.forecast(2)
        band = l1.predictor.band.delta
        assert band > 0.0
        period = l1.params.period
        assert l1.set_points() == (
            forecasts[0] / period,
            forecasts[1] / period,
            band / period,
        )

    def test_band_off_gives_zero_delta(self, trained_l1, module_spec):
        l1 = _observed_l1(trained_l1, module_spec, use_uncertainty_band=False)
        rate_hat, rate_next, delta = l1.set_points()
        assert delta == 0.0
        assert rate_hat > 0.0 and rate_next > 0.0

    def test_reading_set_points_leaves_the_predictor_alone(
        self, trained_l1, module_spec
    ):
        l1 = _observed_l1(trained_l1, module_spec)
        first = l1.set_points()
        assert l1.set_points() == first
        assert np.array_equal(
            l1.predictor.forecast(2), np.array(first[:2]) * l1.params.period
        )

    def test_act_decides_on_the_set_points(self, trained_l1, module_spec):
        acting = _observed_l1(trained_l1, module_spec)
        deciding = _observed_l1(trained_l1, module_spec)
        queues = np.array([0.0, 3.0, 0.0, 12.0])
        alpha = np.array([False, True, True, True])
        acted = acting.act(queues, alpha)
        rate_hat, rate_next, delta = deciding.set_points()
        decided = deciding.decide(
            queues,
            alpha,
            rate_hat=rate_hat,
            rate_next=rate_next,
            delta=delta,
            work=deciding.work_estimate,
        )
        assert np.array_equal(acted.alpha, decided.alpha)
        assert np.array_equal(acted.gamma, decided.gamma)
        assert acted.expected_cost == decided.expected_cost
        assert acted.states_explored == decided.states_explored
