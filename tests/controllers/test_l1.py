"""Tests for the L1 module controller and its abstraction map."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.table import LookupTableMap
from repro.common import ConfigurationError, ControlError
from repro.cluster import (
    ComputerSpec,
    ModuleSpec,
    paper_module_spec,
    processor_profile,
    scaled_module_spec,
)
from repro.controllers import L1Controller, L1Params
from repro.controllers.params import L0Params
from repro.controllers import l1 as l1_module
from repro.controllers.l1 import (
    ComputerBehaviorMap,
    L1Bank,
    require_finite_inputs,
)
from repro.forecast.structural import WorkloadPredictor
from repro.maps.provider import MapProvider, clear_map_memo
from repro.sim.shard import set_points

from helpers import behavior_map_query, reference_l1_decide, reference_map_query


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
            table = behavior_map.table
            assert len(table.rows) == table.quantizer.cell_count == 360

    def test_cost_increases_with_load(self, trained_l1):
        behavior_map = trained_l1.maps[3]  # C4
        low, _ = behavior_map_query(behavior_map, 0.0, 10.0, 0.0175)
        high, _ = behavior_map_query(behavior_map, 0.0, 55.0, 0.0175)
        assert high > low

    def test_overload_grows_queue(self, trained_l1):
        behavior_map = trained_l1.maps[3]
        _, next_queue = behavior_map_query(behavior_map, 0.0, 75.0, 0.0175)
        assert next_queue > 0.0

    def test_idle_cost_is_base_plus_min_dynamic(self, trained_l1):
        behavior_map = trained_l1.maps[3]
        cost, next_queue = behavior_map_query(behavior_map, 0.0, 0.0, 0.0175)
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
            predictor = WorkloadPredictor(band_window=l1.params.band_window)
            switches = 0
            for rate in noisy_rates:
                if use_pipeline:
                    predictor.observe(float(rate * 120.0))
                    rate_hat, rate_next, delta, _ = _set_points(l1, predictor)
                    decision = l1.decide(
                        np.zeros(4), alpha, rate_hat=rate_hat,
                        rate_next=rate_next, delta=delta, work=0.0175,
                    )
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


def _set_points(l1, predictor, share=1.0):
    """The set-points a run hands ``l1`` from ``predictor``'s forecast."""
    return set_points(
        predictor.forecast(2),
        predictor.band.delta,
        share,
        l1.params.period,
        l1.params.use_uncertainty_band,
    )


class TestFedFilter:
    def test_decides_on_a_fed_filters_set_points(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        predictor = WorkloadPredictor(band_window=l1.params.band_window)
        for _ in range(5):
            predictor.observe(12000.0)
        rate_hat, rate_next, delta, _ = _set_points(l1, predictor)
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool), rate_hat=rate_hat,
            rate_next=rate_next, delta=delta, work=0.0175,
        )
        assert decision.gamma.sum() == pytest.approx(1.0)

    def test_substep_count(self, trained_l1):
        assert trained_l1.substep_count() == 4


def _observed_predictor():
    """An arrival filter that has seen a noisy run of interval counts."""
    predictor = WorkloadPredictor()
    rng = np.random.default_rng(3)
    for count in 9000.0 + rng.normal(0.0, 900.0, 24):
        predictor.observe(float(count))
    return predictor


class TestSetPoints:
    def test_forecasts_and_band_become_rates(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        predictor = _observed_predictor()
        forecasts = predictor.forecast(2)
        band = predictor.band.delta
        assert band > 0.0
        period = l1.params.period
        assert _set_points(l1, predictor) == (
            forecasts[0] / period,
            forecasts[1] / period,
            band / period,
            forecasts[0],
        )

    def test_band_off_gives_zero_delta(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec, use_uncertainty_band=False)
        rate_hat, rate_next, delta, _ = _set_points(l1, _observed_predictor())
        assert delta == 0.0
        assert rate_hat > 0.0 and rate_next > 0.0

    def test_reading_set_points_leaves_the_predictor_alone(
        self, trained_l1, module_spec
    ):
        l1 = _fresh_l1(trained_l1, module_spec)
        predictor = _observed_predictor()
        first = _set_points(l1, predictor)
        assert _set_points(l1, predictor) == first
        assert np.array_equal(
            predictor.forecast(2), np.array(first[:2]) * l1.params.period
        )

    def test_share_of_the_forecast(self, trained_l1, module_spec):
        """Under an L2 a module's set-points are gamma_i of the global ones."""
        l1 = _fresh_l1(trained_l1, module_spec)
        predictor = _observed_predictor()
        counts = predictor.forecast(2)
        band = predictor.band.delta
        period = l1.params.period
        gamma = np.float64(0.3)
        assert _set_points(l1, predictor, share=gamma) == (
            gamma * counts[0] / period,
            gamma * counts[1] / period,
            gamma * band / period,
            gamma * counts[0],
        )


def _varied_inputs(module_spec, count, seed):
    """Decision inputs covering bands, saturation, drains and failures."""
    rng = np.random.default_rng(seed)
    m = module_spec.size
    capacity = float(module_spec.max_service_rate(0.0175))
    for k in range(count):
        queues = rng.choice([0.0, 2.0, 40.0, 400.0], size=m) * rng.random(m)
        alpha = rng.random(m) < 0.7
        alpha[k % m] = True
        available = None
        if k % 4 == 0:
            available = np.ones(m, dtype=bool)
            available[(k // 4) % m] = False
        scale = rng.choice([0.2, 0.8, 1.5, 2.5])
        yield (
            queues,
            alpha,
            {
                "rate_hat": float(rng.random() * scale * capacity),
                "rate_next": float(rng.random() * scale * capacity),
                "delta": float(rng.choice([0.0, rng.random() * 0.3 * capacity])),
                "work": float(rng.choice([0.0175, rng.uniform(0.011, 0.024)])),
                "available": available,
            },
        )


class TestDecisionCaches:
    def test_gamma_candidates_are_read_only(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool),
            rate_hat=90.0, rate_next=90.0, delta=5.0, work=0.0175,
        )
        with pytest.raises(ValueError):
            decision.gamma[0] = 0.5
        cached = [
            array
            for plan in l1._plans.values()
            for array in (plan.alphas, plan.gammas)
        ]
        assert cached
        assert not any(g.flags.writeable for g in cached)

    def test_caches_carry_no_state_across_decisions(self, trained_l1, module_spec):
        reused = _fresh_l1(trained_l1, module_spec)
        for queues, alpha, inputs in _varied_inputs(module_spec, 60, seed=14):
            try:
                fresh = _fresh_l1(trained_l1, module_spec).decide(queues, alpha, **inputs)
            except ControlError:
                with pytest.raises(ControlError):
                    reused.decide(queues, alpha, **inputs)
                continue
            again = reused.decide(queues, alpha, **inputs)
            assert again.alpha.tobytes() == fresh.alpha.tobytes()
            assert again.gamma.tobytes() == fresh.gamma.tobytes()
            assert again.expected_cost.hex() == fresh.expected_cost.hex()
            assert again.states_explored == fresh.states_explored


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "argument", ["queues", "rate_hat", "rate_next", "delta", "work"]
    )
    def test_rejected_with_one_line(self, trained_l1, module_spec, argument, value):
        inputs = {
            "queues": np.zeros(4),
            "alpha_current": np.ones(4, dtype=bool),
            "rate_hat": 90.0,
            "rate_next": 90.0,
            "delta": 5.0,
            "work": 0.0175,
        }
        if argument == "queues":
            inputs["queues"] = np.array([0.0, value, 0.0, 0.0])
            expected = f"queues[1] must be finite, got {value!r}"
        else:
            inputs[argument] = value
            expected = f"{argument} must be finite, got {value!r}"
        with pytest.raises(ControlError) as caught:
            _fresh_l1(trained_l1, module_spec).decide(**inputs)
        assert str(caught.value) == expected


def _assert_matches_reference(controller, queues, alpha_current, *args, **kwargs):
    """``controller.decide`` equals the per-candidate loop bit for bit."""
    try:
        expected = reference_l1_decide(controller, queues, alpha_current, *args, **kwargs)
    except ControlError as error:
        with pytest.raises(ControlError, match=re.escape(str(error))):
            controller.decide(queues, alpha_current, *args, **kwargs)
        return None
    decision = controller.decide(queues, alpha_current, *args, **kwargs)
    assert _same_decision(decision, expected)
    return decision


def _same_decision(decision, expected) -> bool:
    return (
        decision.alpha.tobytes() == expected.alpha.tobytes()
        and decision.gamma.tobytes() == expected.gamma.tobytes()
        and decision.expected_cost.hex() == expected.expected_cost.hex()
        and decision.states_explored == expected.states_explored
    )


def _row(columns, r):
    """Row ``r`` of a pass's columns: one controller's ``decide`` arguments."""
    return [column[r] for column in columns]


def _assert_pass_matches_reference(bank, modules, *columns):
    """Each row of one ``bank`` pass equals the oracle on that row alone."""
    decisions = bank.decide(modules, *columns)
    assert len(decisions) == len(modules)
    for r, (module, decision) in enumerate(zip(modules, decisions)):
        expected = reference_l1_decide(bank.controllers[module], *_row(columns, r))
        assert _same_decision(decision, expected), f"row {r} differs"
    return decisions


def _sized_l1(trained_l1, m, **params):
    """An L1 over ``scaled_module_spec(m)``, reusing the trained C1..C4 maps."""
    maps = [trained_l1.maps[j % 4] for j in range(m)]
    return L1Controller(scaled_module_spec(m), behavior_maps=maps, params=L1Params(**params))


#: The parameter sets the array kernel is checked under: the defaults,
#: the overhead scenarios' coarse search, the seed gamma alone, and no
#: band (as ``set_points`` then gives ``delta = 0``).
_PARAM_SETS = {
    "default": {},
    "overhead": {
        "gamma_step": 0.1,
        "gamma_neighborhood_moves": 1,
        "max_gamma_candidates": 8,
    },
    "seed-only": {"gamma_neighborhood_moves": 0},
    "no-band": {"use_uncertainty_band": False},
}


class TestShareTableSearch:
    """The array kernel equals the per-candidate loop bit for bit."""

    @pytest.mark.parametrize("params", _PARAM_SETS.values(), ids=list(_PARAM_SETS))
    @pytest.mark.parametrize("m,count", [(1, 24), (4, 40), (10, 10), (16, 5)])
    def test_varied_inputs_match_reference(self, trained_l1, m, count, params):
        l1 = _sized_l1(trained_l1, m, **params)
        for queues, alpha, inputs in _varied_inputs(l1.spec, count, seed=m):
            if not l1.params.use_uncertainty_band:
                inputs["delta"] = 0.0
            _assert_matches_reference(l1, queues, alpha, **inputs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_inputs_match_reference(self, trained_l1, data):
        m = data.draw(st.integers(min_value=1, max_value=6), label="m")
        params = data.draw(st.sampled_from(list(_PARAM_SETS.values())), label="params")
        l1 = _sized_l1(trained_l1, m, **params)
        capacity = float(l1.capacities.sum())
        flags = st.lists(st.booleans(), min_size=m, max_size=m)
        queues = data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 900.0)), min_size=m, max_size=m
            ),
            label="queues",
        )
        alpha = data.draw(flags, label="alpha")
        available = data.draw(st.one_of(st.none(), flags), label="available")
        rates = st.floats(0.0, 2.5 * capacity)
        inputs = {
            "rate_hat": data.draw(rates, label="rate_hat"),
            "rate_next": data.draw(rates, label="rate_next"),
            "delta": data.draw(
                st.one_of(st.just(0.0), st.floats(0.0, capacity)), label="delta"
            ),
            "work": data.draw(
                st.one_of(st.just(0.0175), st.floats(0.008, 0.03)), label="work"
            ),
            "available": None if available is None else np.array(available),
        }
        _assert_matches_reference(l1, np.array(queues), np.array(alpha), **inputs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_batch_matches_each_row(self, trained_l1, data):
        # Rows with mixed masks, band sample counts and works on one
        # controller, as map training hands them: each row is a lane of
        # its own, rows of one plan stack, and every row must equal the
        # per-candidate loop on that row alone.
        m = data.draw(st.integers(min_value=1, max_value=6), label="m")
        params = data.draw(st.sampled_from(list(_PARAM_SETS.values())), label="params")
        l1 = _sized_l1(trained_l1, m, **params)
        capacity = float(l1.capacities.sum())
        flags = st.lists(st.booleans(), min_size=m, max_size=m)
        rows = data.draw(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "queues": st.lists(
                            st.one_of(st.just(0.0), st.floats(0.0, 900.0)),
                            min_size=m,
                            max_size=m,
                        ),
                        "alpha": flags,
                        "rate_hat": st.floats(0.0, 2.5 * capacity),
                        "rate_next": st.floats(0.0, 2.5 * capacity),
                        "delta": st.one_of(st.just(0.0), st.floats(0.0, capacity)),
                        "work": st.one_of(st.just(0.0175), st.floats(0.008, 0.03)),
                        "available": flags,
                    }
                ),
                min_size=1,
                max_size=12,
            ),
            label="rows",
        )
        for row in rows:
            # Every row keeps a machine available and one on among them.
            row["available"][0] = row["alpha"][0] = True
        names = ("queues", "alpha", "rate_hat", "rate_next", "delta", "work", "available")
        columns = [np.array([row[name] for row in rows]) for name in names]
        _assert_pass_matches_reference(L1Bank([l1]), [0] * len(rows), *columns)

    def test_more_rows_than_one_kernel_block(self, trained_l1):
        # Rows of one mask stack in chunks; a second, interleaved mask
        # makes every chunk gather its rows by index.
        l1 = _sized_l1(trained_l1, 4)
        rows = 2 * l1_module._KERNEL_ROWS + 5
        rng = np.random.default_rng(24)
        queues = rng.choice([0.0, 2.0, 40.0, 400.0], size=(rows, 4)) * rng.random((rows, 4))
        alpha = np.ones((rows, 4), dtype=bool)
        alpha[::3, 1] = False
        _assert_pass_matches_reference(
            L1Bank([l1]),
            [0] * rows,
            queues,
            alpha,
            rng.random(rows) * 250.0,
            rng.random(rows) * 250.0,
            np.where(rng.random(rows) < 0.5, 0.0, 10.0),
            rng.uniform(0.011, 0.024, rows),
            np.ones((rows, 4), dtype=bool),
        )

    @pytest.mark.parametrize(
        "scenario,samples,least",
        [("paper/fig6-cluster16", 12, 768 + 48), ("module-failover", None, 40)],
    )
    def test_recorded_runs_match_reference(self, monkeypatch, scenario, samples, least):
        """Every decided row of a run, module-map training included.

        Training and a run's boundaries both decide through the
        ``L1Bank`` pass, which is spied on.
        """
        decide_pass = L1Bank.decide
        checked = []

        def checking_pass(bank, modules, *columns):
            decisions = decide_pass(bank, modules, *columns)
            for r, (module, decision) in enumerate(zip(modules, decisions)):
                expected = reference_l1_decide(bank.controllers[module], *_row(columns, r))
                checked.append(_same_decision(decision, expected))
            return decisions

        monkeypatch.setattr(L1Bank, "decide", checking_pass)
        clear_map_memo()  # train the module maps here, with this spy
        spec = (
            repro.get_scenario(scenario, samples=samples)
            if samples
            else repro.get_scenario(scenario)
        )
        repro.run_scenario(spec)
        assert len(checked) >= least
        assert all(checked), f"decided row {checked.index(False)} differs"


#: The processor profiles the block pass is checked over.
_PROFILES = ("c1", "c2", "c3", "c4", "pentium_m")


@pytest.fixture(scope="module")
def profile_maps():
    """A trained behaviour map per profile in :data:`_PROFILES`."""
    spec = ModuleSpec(
        "P",
        tuple(
            ComputerSpec(name=f"P.{profile}", processor=processor_profile(profile))
            for profile in _PROFILES
        ),
    )
    maps = MapProvider().behavior_maps(spec, L0Params(), L1Params())
    return dict(zip(_PROFILES, maps))


def _profile_l1(profile_maps, name, profiles, **params):
    """An L1 over a module of ``profiles``, on the shared trained maps."""
    spec = ModuleSpec(
        name,
        tuple(
            ComputerSpec(name=f"{name}.C{j}", processor=processor_profile(profile))
            for j, profile in enumerate(profiles)
        ),
    )
    maps = [profile_maps[profile] for profile in profiles]
    return L1Controller(spec, behavior_maps=maps, params=L1Params(**params))


#: A pass's columns after the modules, in ``L1Controller.decide``'s order.
_COLUMNS = ("queues", "alpha_current", "rate_hat", "rate_next", "delta", "work", "available")

#: One-row corruptions: ``(column, value, the row's own one-line error)``.
_CORRUPTIONS = [
    ("queues", math.nan, "queues[{}] must be finite, got nan"),
    ("queues", -1.0, "queues[{}] must be >= 0, got -1.0"),
    ("rate_hat", -3.0, "rate_hat must be >= 0, got -3.0"),
    ("rate_next", math.inf, "rate_next must be finite, got inf"),
    ("delta", -0.5, "delta must be >= 0, got -0.5"),
    ("work", 0.0, "work must be > 0, got 0.0"),
    ("available", None, "no machine available to serve the module"),
    # Every candidate's rollout overflows to an infinite cost.
    ("rate_hat", 1.7e308, "expected_cost must be finite, got inf"),
]


def _drawn_l1(profile_maps, data, i):
    """Controller ``i`` of a generated pass: 1-6 computers of any profiles."""
    profiles = data.draw(
        st.lists(st.sampled_from(_PROFILES), min_size=1, max_size=6), label=f"profiles[{i}]"
    )
    params = data.draw(st.sampled_from(list(_PARAM_SETS.values())), label=f"params[{i}]")
    return _profile_l1(profile_maps, f"M{i}", profiles, **params)


def _drawn_masks(controller, data, label):
    """``(alpha, available)`` of one row: failed machines, maybe all but one.

    One available machine is always on, so the row has a plan.
    """
    m = controller.spec.size
    flags = st.lists(st.booleans(), min_size=m, max_size=m)
    alpha = np.array(data.draw(flags, label=f"alpha{label}"))
    available = np.array(data.draw(flags, label=f"available{label}"))
    keep = data.draw(st.integers(0, m - 1), label=f"keep{label}")
    if data.draw(st.booleans(), label=f"lone{label}"):
        available[:] = False
    available[keep] = alpha[keep] = True
    return alpha, available


def _drawn_row(controller, data, label, works, masks=None):
    """One generated row of ``controller``: its ``decide`` arguments.

    Queues past the top queue level, rates past a map's top and deltas
    of 0 and above; the work from ``works`` and the masks from
    ``masks`` (else drawn afresh).
    """
    m = controller.spec.size
    capacity = float(controller.capacities.sum())
    if masks is None:
        alpha, available = _drawn_masks(controller, data, label)
    else:
        alpha, available = data.draw(masks, label=f"masks{label}")
    queues = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 900.0)), min_size=m, max_size=m)
    rates = st.floats(0.0, 2.5 * capacity)
    return (
        np.array(data.draw(queues, label=f"queues{label}")),
        alpha,
        data.draw(rates, label=f"rate_hat{label}"),
        data.draw(rates, label=f"rate_next{label}"),
        data.draw(st.one_of(st.just(0.0), st.floats(0.0, capacity)), label=f"delta{label}"),
        data.draw(works, label=f"work{label}"),
        available,
    )


class TestBlockPass:
    """Each row of an ``L1Bank`` pass equals the oracle on that row alone."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_row_equals_decide_on_it_alone(self, profile_maps, data):
        # A boundary's pass: one row per module, one work. Modules of
        # different widths, maps and params; failed machines, a lone
        # available machine, deltas of 0 and above in one pass, queues
        # past the top queue level and rates past a map's top.
        count = data.draw(st.integers(min_value=1, max_value=5), label="modules")
        work = data.draw(st.one_of(st.just(0.0175), st.floats(0.008, 0.03)), label="work")
        controllers = [_drawn_l1(profile_maps, data, i) for i in range(count)]
        modules = data.draw(
            st.one_of(
                st.just(list(range(count))),
                st.lists(
                    st.integers(0, count - 1), min_size=1, max_size=count, unique=True
                ).map(sorted),
            ),
            label="decided",
        )
        rows = [_drawn_row(controllers[i], data, f"[{i}]", st.just(work)) for i in modules]
        columns = [list(column) for column in zip(*rows)]
        _assert_pass_matches_reference(L1Bank(controllers), modules, *columns)
        assert [c.stats.invocations for c in controllers] == [
            int(i in modules) for i in range(count)
        ]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lanes_and_stacks_equal_each_row_alone(self, profile_maps, data):
        # Several controllers, several rows each in any order, with mixed
        # band flags and works: lanes of one or more members, blocks that
        # repeat and stack, and one-member blocks, all in one pass. Each
        # row's masks come from two per controller, so blocks repeat.
        count = data.draw(st.integers(min_value=1, max_value=4), label="controllers")
        controllers = [_drawn_l1(profile_maps, data, i) for i in range(count)]
        masks = [
            [_drawn_masks(controller, data, f"[{i}, {k}]") for k in range(2)]
            for i, controller in enumerate(controllers)
        ]
        modules = data.draw(
            st.lists(st.integers(0, count - 1), min_size=1, max_size=10), label="modules"
        )
        works = st.one_of(st.sampled_from([0.0175, 0.012]), st.floats(0.008, 0.03))
        rows = [
            _drawn_row(
                controllers[i], data, f"[{r}]", works, st.sampled_from(masks[i])
            )
            for r, i in enumerate(modules)
        ]
        columns = [list(column) for column in zip(*rows)]
        _assert_pass_matches_reference(L1Bank(controllers), modules, *columns)
        assert [c.stats.invocations for c in controllers] == [
            modules.count(i) for i in range(count)
        ]

        # One corrupted row raises its own one-line error, led by its
        # module when the bank holds several controllers.
        r = data.draw(st.integers(0, len(modules) - 1), label="corrupted")
        name, value, message = data.draw(st.sampled_from(_CORRUPTIONS), label="corruption")
        if name == "queues":
            j = data.draw(st.integers(0, len(columns[0][r]) - 1), label="computer")
            columns[0][r] = columns[0][r].copy()
            columns[0][r][j] = value
            message = message.format(j)
        elif name == "available":
            columns[6][r] = np.zeros_like(columns[6][r])
        else:
            columns[_COLUMNS.index(name)][r] = value
        if count > 1:
            message = f"module {modules[r]}: {message}"
        with pytest.raises(ControlError, match=f"^{re.escape(message)}$"):
            L1Bank(controllers).decide(modules, *columns)

    def test_repeated_blocks_stack_in_one_kernel_call(self, profile_maps, monkeypatch):
        # Two controllers, three rows each: lane t holds each one's t-th
        # row, and the three blocks of the same members and masks stack
        # as the rows of one kernel call, each at its own work.
        controllers = [
            _profile_l1(profile_maps, "M0", ["c1", "c4"]),
            _profile_l1(profile_maps, "M1", ["c2", "pentium_m", "c3"]),
        ]
        modules = [0, 1, 0, 1, 0, 1]
        sizes = [controllers[i].spec.size for i in modules]
        works = [0.0175, 0.0175, 0.012, 0.012, 0.02, 0.02]
        columns = [
            [np.full(m, 4.0 * r) for r, m in enumerate(sizes)],
            [np.ones(m, dtype=bool) for m in sizes],
            [30.0 + 10.0 * r for r in range(6)],
            [50.0] * 6,
            [3.0] * 6,
            works,
            [np.ones(m, dtype=bool) for m in sizes],
        ]
        calls = []
        totals = L1Controller._totals

        def spy(bank, plan, queues, bands, work):
            calls.append((queues.shape, work.tolist()))
            return totals(bank, plan, queues, bands, work)

        monkeypatch.setattr(L1Controller, "_totals", staticmethod(spy))
        _assert_pass_matches_reference(L1Bank(controllers), modules, *columns)
        assert calls == [((3, 5), [0.0175, 0.012, 0.02])]

    def _rows(self, controllers, **changes):
        """A pass's arguments: one valid row per controller.

        ``changes["m<i>"]`` holds the fields row i changes.
        """
        rows = []
        for i, controller in enumerate(controllers):
            m = controller.spec.size
            row = {
                "queues": np.full(m, 3.0),
                "alpha": np.ones(m, dtype=bool),
                "rate_hat": 0.3 * controller.capacities.sum(),
                "rate_next": 0.4 * controller.capacities.sum(),
                "delta": 2.0,
                "available": np.ones(m, dtype=bool),
            }
            row.update(changes.get(f"m{i}", {}))
            rows.append(row)
        columns = [
            [row[key] for row in rows]
            for key in ("queues", "alpha", "rate_hat", "rate_next", "delta")
        ]
        work = [0.0175] * len(rows)
        return [list(range(len(rows))), *columns, work, [row["available"] for row in rows]]

    @pytest.mark.parametrize(
        "change,message",
        [
            (
                {"available": np.zeros(2, dtype=bool)},
                "module 1: no machine available to serve the module",
            ),
            ({"rate_hat": math.nan}, "module 1: rate_hat must be finite, got nan"),
            ({"queues": np.array([0.0, -1.0])}, "module 1: queues[1] must be >= 0, got -1.0"),
            (
                {"alpha": np.array([True, False]), "available": np.array([False, True])},
                "module 1: no admissible (alpha, gamma) candidate found",
            ),
        ],
    )
    def test_a_failing_row_names_its_module(self, profile_maps, change, message):
        controllers = [
            _profile_l1(profile_maps, "M0", ["c1", "c4"]),
            _profile_l1(profile_maps, "M1", ["c2", "pentium_m"]),
        ]
        with pytest.raises(ControlError, match=f"^{re.escape(message)}$"):
            L1Bank(controllers).decide(*self._rows(controllers, m1=change))

    def _four(self, profile_maps):
        """Four controllers of 2, 2, 1 and 3 machines."""
        return [
            _profile_l1(profile_maps, f"M{i}", profiles)
            for i, profiles in enumerate(
                [["c1", "c4"], ["c2", "pentium_m"], ["c3"], ["c1", "c2", "c3"]]
            )
        ]

    def test_a_clean_pass_checks_its_rows_at_once(self, profile_maps, monkeypatch):
        controllers = self._four(profile_maps)
        args = self._rows(controllers, m3={"queues": np.array([0.0, 700.0, 2.5])})
        calls = []
        row_by_row = L1Bank._raise_first_failure

        def spy(bank, *columns):
            calls.append(columns)
            row_by_row(bank, *columns)

        monkeypatch.setattr(L1Bank, "_raise_first_failure", spy)
        _assert_pass_matches_reference(L1Bank(controllers), *args)
        assert calls == []

    @pytest.mark.parametrize(
        "changes,error,message",
        [
            # Two failing rows: the first is named.
            (
                {"m1": {"rate_hat": math.nan}, "m3": {"queues": np.array([0.0, -1.0, 0.0])}},
                ControlError,
                "module 1: rate_hat must be finite, got nan",
            ),
            (
                {"m0": {"alpha": np.array([True, False]), "available": np.array([False, True])},
                 "m2": {"delta": -1.0}},
                ControlError,
                "module 0: no admissible (alpha, gamma) candidate found",
            ),
            (
                {"m3": {"queues": np.array([0.0, 3.0, np.nan])}},
                ControlError,
                "module 3: queues[2] must be finite, got nan",
            ),
            (
                {"m2": {"queues": np.zeros(2)}},
                ConfigurationError,
                "module 2: queues and alpha must have one entry per computer",
            ),
            (
                {"m3": {"available": np.ones(2, dtype=bool)}},
                ConfigurationError,
                "module 3: available mask must match module size",
            ),
        ],
        ids=["two-failing-rows", "plan-before-a-later-row", "nan-last-row", "wrong-shape", "mask-shape"],
    )
    def test_a_failing_pass_names_the_first_failing_module(
        self, profile_maps, changes, error, message
    ):
        controllers = self._four(profile_maps)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            L1Bank(controllers).decide(*self._rows(controllers, **changes))

    def test_a_module_run_builds_nothing(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        bank = L1Bank([l1])
        modules, *columns = self._rows([l1])
        _assert_pass_matches_reference(bank, modules, *columns)
        assert "_bank" not in vars(bank) and bank._last is None

    def test_only_the_last_block_is_kept(self, profile_maps):
        controllers = [
            _profile_l1(profile_maps, "M0", ["c1", "c4"]),
            _profile_l1(profile_maps, "M1", ["c2", "pentium_m", "c3"]),
        ]
        bank = L1Bank(controllers)
        bank.decide(*self._rows(controllers))
        first = bank._last
        bank.decide(*self._rows(controllers, m0={"queues": np.array([9.0, 1.0])}))
        assert bank._last is first  # the masks repeat: the block is reused
        off = {"alpha": np.array([True, False, True])}
        bank.decide(*self._rows(controllers, m1=off))
        assert bank._last is not first and bank._last[0] != first[0]


class TestDomain:
    """Inputs outside the model's domain fail in one line."""

    BASE = {"rate_hat": 90.0, "rate_next": 90.0, "delta": 5.0, "work": 0.0175}

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"queues": [0.0, -1.0, 0.0, 0.0]}, "queues[1] must be >= 0, got -1.0"),
            ({"rate_hat": -3.0}, "rate_hat must be >= 0, got -3.0"),
            ({"rate_next": -3.0}, "rate_next must be >= 0, got -3.0"),
            ({"delta": -0.5}, "delta must be >= 0, got -0.5"),
            # A rate past every map's grid takes the saturated rollout,
            # which divides by the work.
            ({"work": 0.0, "rate_hat": 1000.0}, "work must be > 0, got 0.0"),
            ({"work": -0.0175, "rate_hat": 1000.0}, "work must be > 0, got -0.0175"),
            # Every candidate's rollout overflows to an infinite cost.
            ({"rate_hat": 1.7e308}, "expected_cost must be finite, got inf"),
        ],
        ids=[
            "negative-queue",
            "negative-rate-hat",
            "negative-rate-next",
            "negative-delta",
            "zero-work",
            "negative-work",
            "infinite-best-total",
        ],
    )
    def test_rejected_with_one_line(self, trained_l1, module_spec, change, message):
        inputs = {"queues": [0.0] * 4, **self.BASE, **change}
        queues = np.array(inputs.pop("queues"))
        with pytest.raises(ControlError) as caught:
            _fresh_l1(trained_l1, module_spec).decide(
                queues, np.ones(4, dtype=bool), **inputs
            )
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "change",
        [
            {"rate_hat": 1.7e308, "rate_next": 1.7e308},
            {"rate_hat": 1e308, "rate_next": 1e308, "delta": 1e308},
            {"rate_hat": 1e200, "work": 1e200},
        ],
        ids=["float-max-rates", "overflowing-band", "huge-rate-and-work"],
    )
    def test_overflow_fails_in_one_line_without_warnings(
        self, trained_l1, module_spec, change
    ):
        l1 = _fresh_l1(trained_l1, module_spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ControlError) as caught:
                l1.decide(np.zeros(4), np.ones(4, dtype=bool), **{**self.BASE, **change})
        assert str(caught.value) == "expected_cost must be finite, got inf"

    def test_tiny_work_decides_without_warnings(self, trained_l1, module_spec):
        # A rate past the maps takes the saturated rollout, which divides
        # the speed by the work: at 5e-324 that overflows to an infinite
        # capacity, and the decision still stands.
        l1 = _fresh_l1(trained_l1, module_spec)
        inputs = {**self.BASE, "rate_hat": 1000.0, "work": 5e-324}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = l1.decide(np.zeros(4), np.ones(4, dtype=bool), **inputs)
        assert math.isfinite(decision.expected_cost)

    def _columns(self, rows, **set_points):
        """A pass's columns after the modules: ``rows`` valid rows of 4."""
        values = {**self.BASE, **set_points}
        return [
            np.zeros((rows, 4)),
            np.ones((rows, 4), dtype=bool),
            *(np.full(rows, values[name]) for name in ("rate_hat", "rate_next", "delta", "work")),
            np.ones((rows, 4), dtype=bool),
        ]

    def test_many_rows_raise_the_failing_row_s_error(self, trained_l1, module_spec):
        # The first failing row of a pass raises its own one-line error:
        # unprefixed when the bank holds one controller, led by the row's
        # module when it holds several.
        l1 = _fresh_l1(trained_l1, module_spec)
        columns = self._columns(3)
        columns[0][2, 1] = -1.0
        message = "queues[1] must be >= 0, got -1.0"
        with pytest.raises(ControlError, match=f"^{re.escape(message)}$"):
            L1Bank([l1]).decide([0, 0, 0], *columns)
        columns = self._columns(3)
        columns[2][1] = 1.7e308
        two = L1Bank([l1, _fresh_l1(trained_l1, module_spec)])
        with pytest.raises(
            ControlError, match="^module 1: expected_cost must be finite, got inf$"
        ):
            two.decide([0, 1, 1], *columns)

    def test_set_points_need_one_value_per_row(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        short = self._columns(3)
        short[2:6] = [np.full(2, value) for value in self.BASE.values()]
        scalar_work = self._columns(3)
        scalar_work[5] = 0.0175
        for columns in (short, scalar_work):
            with pytest.raises(ConfigurationError, match="need one value per row"):
                L1Bank([l1]).decide([0, 0, 0], *columns)

    def test_no_rows_no_decisions(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        assert L1Bank([l1]).decide([], *self._columns(0)) == []
        assert l1.stats.invocations == 0


class TestArrayQuery:
    """A behaviour map's array query equals the scalar oracle bit for bit."""

    @staticmethod
    def _coordinate(levels, beyond):
        """Values on the levels, their midpoints, inside the grid and past it."""
        midpoints = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        return st.one_of(
            st.sampled_from(levels + midpoints),
            st.floats(levels[0], levels[-1]),
            st.floats(levels[-1], beyond * levels[-1]),
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_scalar_oracle(self, trained_l1, data):
        behavior_map = trained_l1.maps[data.draw(st.integers(0, 3), label="map")]
        queue_levels, rate_levels, work_levels = behavior_map.table.quantizer.levels
        points = data.draw(
            st.lists(
                st.tuples(
                    self._coordinate(queue_levels, 8.0),
                    self._coordinate(rate_levels, 4.0),
                    self._coordinate(work_levels, 1.5),
                ),
                min_size=1,
                max_size=24,
            ),
            label="points",
        )
        costs, finals = behavior_map_query(behavior_map, *np.array(points).T)
        for point, cost, final in zip(points, costs.tolist(), finals.tolist()):
            want_cost, want_final = reference_map_query(behavior_map, *point)
            assert (cost.hex(), final.hex()) == (
                float(want_cost).hex(),
                float(want_final).hex(),
            )

    def test_numbers_give_zero_dimensional_arrays(self, trained_l1):
        cost, final = behavior_map_query(trained_l1.maps[0], 5.0, 10.0, 0.0175)
        assert cost.shape == final.shape == ()


def _tiny_map(
    rate_top: float,
    queue_top: float = 7.0,
    next_queues=(1.0, 2.0, 3.0, 4.0),
    costs=(10.0, 17.0, 24.0, 31.0),
    speed_factor: float = 1.0,
) -> ComputerBehaviorMap:
    """A one-substep map over a 2 x 2 grid of (queue, rate) cells.

    Rates above ``rate_top`` take the saturated rollout, which is
    continuous in the queue and the rate, so points a hair apart give
    different results there. Below it, a queue right on the midpoint of
    the queue grid snaps down and one a hair above snaps up. ``costs``
    and ``next_queues`` are the cells' outputs in grid order
    (queue-major): the cell of an empty queue at ``rate_top`` is the
    second.
    """
    spec = ComputerSpec(
        name="tiny", processor=processor_profile("c4"), speed_factor=speed_factor
    )
    quantizer = GridQuantizer([[0.0, queue_top], [0.0, rate_top], [0.0175]])
    rows = [[cost, q] for cost, q in zip(costs, next_queues)]
    return ComputerBehaviorMap(spec, LookupTableMap(quantizer, rows), substeps=1)


def _equal_l1(maps, **params) -> L1Controller:
    """Equal-speed computers, computer j on ``maps[j]``."""
    return L1Controller(
        scaled_module_spec(len(maps), speed_factor=1.0),
        behavior_maps=list(maps),
        params=L1Params(**params),
    )


def _differ(behavior_map, point, other) -> bool:
    """Whether two points of one map give different results."""
    return reference_map_query(behavior_map, *point) != reference_map_query(
        behavior_map, *other
    )


class TestEachPointIsItsOwnQuery:
    """Every point a decision costs is evaluated at its own inputs.

    Each case has two points that agree to six decimals, which the
    former per-decision memo keyed alike, on one map whose results
    there differ. The first point it visited answered for both; now
    each point is its own query, and the decision changes with it.
    """

    WORK = 0.0175

    def test_two_computers_with_queues_equal_to_six_decimals(self):
        # Both computers serve 0.5 of a saturated load on one map; the
        # second one's queue is a hair longer, so its rollout differs.
        behavior_map = _tiny_map(rate_top=20.0)
        l1 = _equal_l1([behavior_map] * 2, gamma_step=0.5, gamma_neighborhood_moves=0)
        queues = np.array([100.0, 100.0 + 1e-9])
        assert _differ(behavior_map, (queues[0], 60.0, self.WORK), (queues[1], 60.0, self.WORK))
        inputs = dict(rate_hat=120.0, rate_next=120.0, delta=0.0, work=self.WORK)
        decision = _assert_matches_reference(l1, queues, np.ones(2, dtype=bool), **inputs)
        assert decision.alpha.tolist() == [1, 1]
        equal = l1.decide(np.full(2, 100.0), np.ones(2, dtype=bool), **inputs)
        assert decision.expected_cost != equal.expected_cost

    def test_a_serving_point_at_zero_share_and_a_drain(self):
        # The seed over three equal computers is (0.5, 0.5, 0): computer
        # 2 serves at share 0.0 in the first candidate, and computer 1
        # drains at rate 0.0 later. Their queues straddle the queue
        # grid's midpoint, so the two points snap to different cells.
        behavior_map = _tiny_map(rate_top=60.0)
        l1 = _equal_l1([behavior_map] * 3, gamma_step=0.5, gamma_neighborhood_moves=0)
        queues = np.array([6.9, 3.5 + 1e-9, 3.5])
        assert _differ(behavior_map, (queues[1], 0.0, self.WORK), (queues[2], 0.0, self.WORK))
        decision = _assert_matches_reference(
            l1, queues, np.ones(3, dtype=bool),
            rate_hat=8.0, rate_next=8.0, delta=0.0, work=self.WORK,
        )
        assert decision.alpha.tolist() == [0, 1, 1]

    def test_a_boot_point_and_a_later_serving_point(self):
        # At step 1/3 computer 0 boots, starts empty and takes a third of
        # rate_next = 3 rate_hat in period k+1. A later candidate drains
        # the slow computer 1, so computer 2, queue 1e-9, serves all of
        # rate_hat on computer 0's map: the boot point comes first, and
        # the chosen candidate costs the serving point.
        tiny = _tiny_map(rate_top=20.0)
        slow = _tiny_map(rate_top=1e-3, costs=(0.0,) * 4, speed_factor=0.01)
        step = 1.0 / 3.0
        l1 = _equal_l1(
            [tiny, slow, tiny],
            gamma_step=step, gamma_neighborhood_moves=0, switching_weight=0.0,
        )
        queues = np.array([0.0, 50.0, 1e-9])
        rate = 90.0
        assert _differ(tiny, (0.0, np.float64(step) * (3 * rate), self.WORK), (queues[2], rate, self.WORK))
        decision = _assert_matches_reference(
            l1, queues, np.array([False, True, True]),
            rate_hat=rate, rate_next=3 * rate, delta=0.0, work=self.WORK,
        )
        assert decision.alpha.tolist() == [0, 0, 1]

    def test_a_start_queue_and_a_queue_equal_to_six_decimals(self):
        # Four equal computers serve 60 req/s each. Computers 0 and 2
        # share a map that saturates there; computers 1 and 3 share one
        # that does not. Computer 0's rollout, and computer 1's table
        # cell, end at a queue of 269.7867145, the start queue of their
        # second-term points; computers 2 and 3 start period k at
        # 269.786714. Either map costs the two queues differently.
        target = 269.7867145
        saturating = _tiny_map(rate_top=30.0)
        # The queue grid's midpoint lies between 269.786714 and target.
        tabled = _tiny_map(
            rate_top=100.0,
            queue_top=539.5734285,
            next_queues=(1.0, target, 3.0, 4.0),
        )
        rate = 240.0
        share = 0.25 * rate
        start = target - (share * 30.0 - 30.0 / self.WORK)
        for _ in range(64):
            _, end = reference_map_query(saturating, start, share, self.WORK)
            if end == target:
                break
            start = np.nextafter(start, np.inf if end < target else -np.inf)
        assert end == target
        assert reference_map_query(tabled, 0.0, share, self.WORK)[1] == target
        for behavior_map in (saturating, tabled):
            assert _differ(
                behavior_map, (269.786714, share, self.WORK), (target, share, self.WORK)
            )
        l1 = L1Controller(
            scaled_module_spec(4, speed_factor=1.0),
            behavior_maps=[saturating, tabled, saturating, tabled],
            params=L1Params(gamma_step=0.25, gamma_neighborhood_moves=0),
        )
        decision = _assert_matches_reference(
            l1, np.array([start, 0.0, 269.786714, 269.786714]), np.ones(4, dtype=bool),
            rate_hat=rate, rate_next=rate, delta=0.0, work=self.WORK,
        )
        assert decision.alpha.tolist() == [1, 1, 1, 1]


class TestRequireFiniteInputs:
    def test_finite_inputs_pass(self):
        assert require_finite_inputs(rate=40.0, queues=np.zeros((2, 3))) is None

    def test_names_the_first_bad_input_and_element(self):
        queues = np.zeros((2, 3))
        queues[1, 2] = np.inf
        with pytest.raises(ControlError, match=r"^queues\[1, 2\] must be finite, got inf$"):
            require_finite_inputs(rate=40.0, queues=queues, work=np.nan)
        with pytest.raises(ControlError, match=r"^work must be finite, got nan$"):
            require_finite_inputs(rate=40.0, queues=np.zeros(3), work=np.nan)
