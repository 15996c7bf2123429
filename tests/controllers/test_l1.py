"""Tests for the L1 module controller and its abstraction map."""

import math
import re
import warnings
from bisect import bisect_left
from dataclasses import dataclass

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
    L1Decision,
    require_finite_inputs,
)
from repro.core.simplex import quantize_to_simplex, simplex_neighbors
from repro.core.uncertainty import three_point_band
from repro.forecast.structural import WorkloadPredictor
from repro.maps.provider import MapProvider, clear_map_memo
from repro.sim.shard import set_points

from helpers import behavior_map_query, table_cell


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


def _nearest(levels, value) -> int:
    """The scalar nearest-level rule: bisect, a tie to the lower level."""
    pos = bisect_left(levels, value)
    if pos == 0:
        return 0
    if pos >= len(levels):
        return len(levels) - 1
    before, after = levels[pos - 1], levels[pos]
    return pos - 1 if value - before <= after - value else pos


def _reference_rollout(behavior_map, queue, rate, work):
    """The scalar closed-form overload cost the array rollout replaced."""
    params = behavior_map.l0_params
    speed = behavior_map.spec.effective_speed_factor
    capacity = speed / work * params.period
    power = behavior_map.spec.base_power + behavior_map.spec.power_scale  # phi = 1
    q = float(queue)
    total_cost = 0.0
    for _ in range(behavior_map.substeps):
        q = max(0.0, q + rate * params.period - capacity)
        response = (1.0 + q) * work / speed
        slack = max(0.0, response - params.target_response)
        total_cost += params.weights.tracking * slack
        total_cost += params.weights.operating * power
    return total_cost, q


def _reference_query(behavior_map, queue, rate, work):
    """The scalar map query the array query replaced (test oracle).

    Snaps each coordinate to its nearest grid level and reads the table
    cell, unless the rate is past the trained maximum: then the
    closed-form saturated rollout answers.
    """
    queue_levels, rate_levels, work_levels = behavior_map.table.quantizer.levels
    if rate > rate_levels[-1]:
        return _reference_rollout(behavior_map, queue, rate, work)
    return table_cell(
        behavior_map.table,
        (
            _nearest(queue_levels, queue),
            _nearest(rate_levels, rate),
            _nearest(work_levels, work),
        )
    )


@dataclass(frozen=True)
class _DecisionPoint:
    """Inputs of one L1 decision that every candidate's cost shares.

    Computed once per :meth:`_ReferenceL1.decide`: the arrival-rate
    samples of both horizon terms and the memo-key parts that do not
    depend on the candidate.
    """

    queues: np.ndarray
    work: float
    samples: list  # first-term rates: the band around rate_hat
    next_samples: list  # second-term rates: the band around rate_next
    map_ids: "list[int]"  # id(maps[j]), the memo key's map part


class _ReferenceL1:
    """The per-candidate L1 search the array kernel replaced (test oracle).

    ``decide`` walks every (alpha, gamma) candidate and costs it with
    ``_horizon_cost``: one map query per computer and band sample, each
    with the scalar :func:`_reference_query`, memoised on the exact
    point, so every point's result is that point's own query. The loop
    and its order of addition are those of the former
    ``L1Controller.decide``; it reads the controller's maps, params and
    capacities and keeps its own caches.
    """

    def __init__(self, controller: L1Controller) -> None:
        self.spec = controller.spec
        self.params = controller.params
        self.l0_params = controller.l0_params
        self.maps = controller.maps
        self.capacities = controller.capacities
        self._base_powers = controller._base_powers
        self._gamma_candidates: "dict[bytes, tuple[np.ndarray, ...]]" = {}
        self._gamma_next: "dict[bytes, np.ndarray]" = {}

    def decide(
        self,
        queues: np.ndarray,
        alpha_current: np.ndarray,
        rate_hat: float,
        rate_next: float,
        delta: float,
        work: float,
        available: np.ndarray | None = None,
    ) -> L1Decision:
        queues = np.asarray(queues, dtype=float)
        alpha_current = np.asarray(alpha_current).astype(bool)
        m = self.spec.size
        if available is None:
            available = np.ones(m, dtype=bool)
        else:
            available = np.asarray(available).astype(bool)
            if not available.any():
                raise ControlError("no machine available to serve the module")
            alpha_current = alpha_current & available
        self._available = available
        explored = 0
        best_cost = float("inf")
        best_alpha: np.ndarray | None = None
        best_gamma: np.ndarray | None = None
        self._memo: dict[tuple, tuple[float, float]] = {}
        point = _DecisionPoint(
            queues=queues,
            work=work,
            samples=list(three_point_band(rate_hat, delta)) if delta > 0 else [rate_hat],
            next_samples=(
                list(three_point_band(rate_next, delta)) if delta > 0 else [rate_next]
            ),
            map_ids=[id(m) for m in self.maps],
        )
        for alpha in self._candidate_alphas(alpha_current):
            serving_now = alpha & alpha_current
            if not serving_now.any():
                continue
            context = self._alpha_context(alpha, alpha_current)
            for gamma in self._candidate_gammas(serving_now):
                cost, states = self._horizon_cost(point, context, gamma)
                explored += states
                if cost < best_cost:
                    best_cost = cost
                    best_alpha = alpha
                    best_gamma = gamma
        if best_alpha is None:
            raise ControlError("no admissible (alpha, gamma) candidate found")
        return L1Decision(
            alpha=best_alpha.astype(int),
            gamma=best_gamma,
            expected_cost=best_cost,
            states_explored=explored,
        )

    def _candidate_alphas(self, alpha_current: np.ndarray) -> list[np.ndarray]:
        m = alpha_current.size
        available = getattr(self, "_available", np.ones(m, dtype=bool))
        candidates = [alpha_current.copy()]
        for j in range(m):
            candidate = alpha_current.copy()
            if not candidate[j] and not available[j]:
                continue  # cannot switch on a failed machine
            candidate[j] = not candidate[j]
            if candidate.any():  # never turn the whole module off
                candidates.append(candidate)
        return candidates

    def _candidate_gammas(self, serving: np.ndarray) -> "tuple[np.ndarray, ...]":
        mask = serving.tobytes()
        cached = self._gamma_candidates.get(mask)
        if cached is not None:
            return cached
        weights = np.where(serving, self.capacities, 0.0)
        seed = quantize_to_simplex(weights, self.params.gamma_step)
        candidates = [seed]
        if self.params.gamma_neighborhood_moves > 0:
            for neighbor in simplex_neighbors(
                seed, self.params.gamma_step, moves=self.params.gamma_neighborhood_moves
            ):
                # gamma may only load machines that are serving now.
                if np.any(neighbor[~serving] > 0):
                    continue
                candidates.append(neighbor)
                if len(candidates) >= self.params.max_gamma_candidates:
                    break
        for candidate in candidates:
            candidate.setflags(write=False)
        cached = self._gamma_candidates[mask] = tuple(candidates)
        return cached

    def _alpha_context(
        self, alpha: np.ndarray, alpha_current: np.ndarray
    ) -> dict:
        """Per-alpha quantities shared by every gamma candidate."""
        serving_now = alpha & alpha_current
        booting = alpha & ~alpha_current
        draining = ~alpha & alpha_current
        substeps = self.substep_count()
        fixed = self.params.switching_weight * int(booting.sum())
        for j in np.flatnonzero(booting):
            fixed += self._base_powers[j] * substeps
        mask = alpha.tobytes()
        gamma_next = self._gamma_next.get(mask)
        if gamma_next is None:
            gamma_next = quantize_to_simplex(
                np.where(alpha, self.capacities, 0.0), self.params.gamma_step
            )
            gamma_next.setflags(write=False)
            self._gamma_next[mask] = gamma_next
        return {
            "alpha": alpha,
            "serving_idx": [int(j) for j in np.flatnonzero(serving_now)],
            "draining_idx": [int(j) for j in np.flatnonzero(draining)],
            "on_idx": [int(j) for j in np.flatnonzero(alpha)],
            "serving_now": serving_now,
            "fixed_cost": fixed,
            "gamma_next": gamma_next,
        }

    def _horizon_cost(
        self, point: "_DecisionPoint", context: dict, gamma: np.ndarray
    ) -> tuple[float, int]:
        """Expected cost of periods k and k+1 under a candidate.

        Returns (cost, states evaluated). Each sampled arrival rate is one
        predicted system state, matching the paper's exploration metric.
        """
        queues = point.queues
        map_ids = point.map_ids
        work = point.work
        total = context["fixed_cost"]
        weight = 1.0 / len(point.samples)
        next_queues = {j: 0.0 for j in context["serving_idx"]}
        for rate in point.samples:
            step_cost = 0.0
            for j in context["serving_idx"]:
                share = gamma[j] * rate
                key = (map_ids[j], queues[j], share, work)
                cost_j, next_q = self._query(key, j, queues[j], share, work)
                step_cost += cost_j
                next_queues[j] += next_q * weight
            for j in context["draining_idx"]:
                key = (map_ids[j], queues[j], 0.0, work)
                cost_j, _ = self._query(key, j, queues[j], 0.0, work)
                step_cost += cost_j
            total += step_cost * weight

        # Second horizon term: boots have completed; load re-allocated
        # capacity-proportionally over the candidate's on-set.
        gamma_next = context["gamma_next"]
        next_weight = 1.0 / len(point.next_samples)
        for rate in point.next_samples:
            step_cost = 0.0
            for j in context["on_idx"]:
                start_queue = next_queues.get(j, 0.0)
                share = gamma_next[j] * rate
                key = (map_ids[j], start_queue, share, work)
                cost_j, _ = self._query(key, j, start_queue, share, work)
                step_cost += cost_j
            total += step_cost * next_weight
        return total, len(point.samples) + len(point.next_samples)

    def _query(
        self, key: tuple, j: int, queue: float, rate: float, work: float
    ) -> tuple[float, float]:
        """Memoised abstraction-map lookup for computer ``j``.

        ``key`` is ``(id(self.maps[j]), queue, rate, work)``, the exact
        point. It names the map rather than the computer, so
        same-profile machines at the same operating point share one
        evaluation, and only equal points share one.
        """
        hit = self._memo.get(key)
        if hit is None:
            hit = _reference_query(self.maps[j], queue, rate, work)
            self._memo[key] = hit
        return hit

    def substep_count(self) -> int:
        return round(self.params.period / self.l0_params.period)


def _reference_decide(controller, queues, alpha_current, *args, **kwargs):
    """The per-candidate loop's decision for ``controller.decide``'s inputs."""
    return _ReferenceL1(controller).decide(queues, alpha_current, *args, **kwargs)


def _assert_matches_reference(controller, queues, alpha_current, *args, **kwargs):
    """``controller.decide`` equals the per-candidate loop bit for bit."""
    try:
        expected = _reference_decide(controller, queues, alpha_current, *args, **kwargs)
    except ControlError as error:
        with pytest.raises(ControlError, match=re.escape(str(error))):
            controller.decide(queues, alpha_current, *args, **kwargs)
        return None
    decision = controller.decide(queues, alpha_current, *args, **kwargs)
    assert decision.alpha.tobytes() == expected.alpha.tobytes()
    assert decision.gamma.tobytes() == expected.gamma.tobytes()
    assert decision.expected_cost.hex() == expected.expected_cost.hex()
    assert decision.states_explored == expected.states_explored
    return decision


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
        # Rows with mixed masks and band sample counts on one controller:
        # decide_many groups them by plan, and every row must equal the
        # per-candidate loop and decide on that row alone.
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
                        "available": flags,
                        "rate_hat": st.floats(0.0, 2.5 * capacity),
                        "rate_next": st.floats(0.0, 2.5 * capacity),
                        "delta": st.one_of(st.just(0.0), st.floats(0.0, capacity)),
                        "work": st.one_of(st.just(0.0175), st.floats(0.008, 0.03)),
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
        queues = np.array([row["queues"] for row in rows])
        alpha = np.array([row["alpha"] for row in rows])
        available = np.array([row["available"] for row in rows])
        set_points = {
            name: np.array([row[name] for row in rows])
            for name in ("rate_hat", "rate_next", "delta", "work")
        }
        decisions = l1.decide_many(queues, alpha, **set_points, available=available)
        assert len(decisions) == len(rows)
        for r, decision in enumerate(decisions):
            inputs = {name: float(values[r]) for name, values in set_points.items()}
            for expected in (
                _reference_decide(l1, queues[r], alpha[r], **inputs, available=available[r]),
                l1.decide(queues[r], alpha[r], **inputs, available=available[r]),
            ):
                assert decision.alpha.tobytes() == expected.alpha.tobytes()
                assert decision.gamma.tobytes() == expected.gamma.tobytes()
                assert decision.expected_cost.hex() == expected.expected_cost.hex()
                assert decision.states_explored == expected.states_explored

    def test_more_rows_than_one_kernel_block(self, trained_l1):
        # Rows of one mask run in blocks; a second, interleaved mask
        # makes every block gather its rows by index.
        l1 = _sized_l1(trained_l1, 4)
        rows = 2 * l1_module._KERNEL_ROWS + 5
        rng = np.random.default_rng(24)
        queues = rng.choice([0.0, 2.0, 40.0, 400.0], size=(rows, 4)) * rng.random((rows, 4))
        alpha = np.ones((rows, 4), dtype=bool)
        alpha[::3, 1] = False
        set_points = {
            "rate_hat": rng.random(rows) * 250.0,
            "rate_next": rng.random(rows) * 250.0,
            "delta": np.where(rng.random(rows) < 0.5, 0.0, 10.0),
            "work": rng.uniform(0.011, 0.024, rows),
        }
        decisions = l1.decide_many(queues, alpha, **set_points)
        for r, decision in enumerate(decisions):
            inputs = {name: float(values[r]) for name, values in set_points.items()}
            expected = _reference_decide(l1, queues[r], alpha[r], **inputs)
            assert decision.alpha.tobytes() == expected.alpha.tobytes()
            assert decision.gamma.tobytes() == expected.gamma.tobytes()
            assert decision.expected_cost.hex() == expected.expected_cost.hex()

    @pytest.mark.parametrize(
        "scenario,samples,least",
        [("paper/fig6-cluster16", 12, 768 + 48), ("module-failover", None, 40)],
    )
    def test_recorded_runs_match_reference(self, monkeypatch, scenario, samples, least):
        """Every decided row of a run, module-map training included.

        Training decides through ``decide_many`` and a run's boundaries
        through the ``L1Bank`` pass: both are spied on.
        """
        decide_many = L1Controller.decide_many
        decide_pass = L1Bank.decide
        checked = []

        def check(controller, decision, *row):
            expected = _reference_decide(controller, *row)
            checked.append(
                decision.alpha.tobytes() == expected.alpha.tobytes()
                and decision.gamma.tobytes() == expected.gamma.tobytes()
                and decision.expected_cost.hex() == expected.expected_cost.hex()
                and decision.states_explored == expected.states_explored
            )

        def checking_decide_many(
            controller, queues, alpha_current, rate_hat, rate_next, delta, work,
            available=None,
        ):
            decisions = decide_many(
                controller, queues, alpha_current, rate_hat, rate_next, delta, work,
                available,
            )
            for r, decision in enumerate(decisions):
                check(
                    controller,
                    decision,
                    np.asarray(queues)[r],
                    np.asarray(alpha_current)[r],
                    float(np.asarray(rate_hat)[r]),
                    float(np.asarray(rate_next)[r]),
                    float(np.asarray(delta)[r]),
                    float(np.asarray(work)[r]),
                    None if available is None else np.asarray(available)[r],
                )
            return decisions

        def checking_pass(
            bank, modules, queues, alpha_current, rate_hat, rate_next, delta, work,
            available,
        ):
            decisions = decide_pass(
                bank, modules, queues, alpha_current, rate_hat, rate_next, delta, work,
                available,
            )
            for r, (module, decision) in enumerate(zip(modules, decisions)):
                check(
                    bank.controllers[module],
                    decision,
                    queues[r],
                    alpha_current[r],
                    rate_hat[r],
                    rate_next[r],
                    delta[r],
                    work,
                    available[r],
                )
            return decisions

        monkeypatch.setattr(L1Controller, "decide_many", checking_decide_many)
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


def _same_decision(decision, expected) -> bool:
    return (
        decision.alpha.tobytes() == expected.alpha.tobytes()
        and decision.gamma.tobytes() == expected.gamma.tobytes()
        and decision.expected_cost.hex() == expected.expected_cost.hex()
        and decision.states_explored == expected.states_explored
    )


class TestBlockPass:
    """One ``L1Bank`` pass decides each module as its ``decide`` alone does."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_row_equals_decide_on_it_alone(self, profile_maps, data):
        # Modules of different widths, maps and params; failed machines,
        # a lone available machine, deltas of 0 and above in one pass,
        # queues past the top queue level and rates past a map's top.
        count = data.draw(st.integers(min_value=1, max_value=5), label="modules")
        work = data.draw(st.one_of(st.just(0.0175), st.floats(0.008, 0.03)), label="work")
        controllers, twins, rows = [], [], []
        for i in range(count):
            profiles = data.draw(
                st.lists(st.sampled_from(_PROFILES), min_size=1, max_size=6),
                label=f"profiles[{i}]",
            )
            params = data.draw(st.sampled_from(list(_PARAM_SETS.values())))
            controllers.append(_profile_l1(profile_maps, f"M{i}", profiles, **params))
            twins.append(_profile_l1(profile_maps, f"M{i}", profiles, **params))
            m = len(profiles)
            capacity = float(controllers[-1].capacities.sum())
            flags = st.lists(st.booleans(), min_size=m, max_size=m)
            alpha = np.array(data.draw(flags, label=f"alpha[{i}]"))
            available = np.array(data.draw(flags, label=f"available[{i}]"))
            keep = data.draw(st.integers(0, m - 1), label=f"keep[{i}]")
            if data.draw(st.booleans(), label=f"lone[{i}]"):
                available[:] = False
            available[keep] = alpha[keep] = True
            rates = st.floats(0.0, 2.5 * capacity)
            rows.append(
                (
                    np.array(
                        data.draw(
                            st.lists(
                                st.one_of(st.just(0.0), st.floats(0.0, 900.0)),
                                min_size=m,
                                max_size=m,
                            ),
                            label=f"queues[{i}]",
                        )
                    ),
                    alpha,
                    data.draw(rates, label=f"rate_hat[{i}]"),
                    data.draw(rates, label=f"rate_next[{i}]"),
                    data.draw(
                        st.one_of(st.just(0.0), st.floats(0.0, capacity)),
                        label=f"delta[{i}]",
                    ),
                    work,
                    available,
                )
            )
        modules = data.draw(
            st.one_of(
                st.just(list(range(count))),
                st.lists(
                    st.integers(0, count - 1), min_size=1, max_size=count, unique=True
                ).map(sorted),
            ),
            label="decided",
        )
        expected = [twins[i].decide(*rows[i]) for i in modules]
        columns = [list(column) for column in zip(*(rows[i] for i in modules))]
        columns[5] = work  # the boundary's one c-hat
        decisions = L1Bank(controllers).decide(modules, *columns)
        for decision, want in zip(decisions, expected):
            assert _same_decision(decision, want)
        assert [c.stats.invocations for c in controllers] == [
            int(i in modules) for i in range(count)
        ]

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
        return [list(range(len(rows))), *columns, 0.0175, [row["available"] for row in rows]]

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
        modules, *columns = args
        expected = [
            twin.decide(*[column if k == 5 else column[i] for k, column in enumerate(columns)])
            for i, twin in enumerate(self._four(profile_maps))
        ]
        calls = []
        inputs = L1Controller._inputs

        def spy(controller, *row):
            calls.append(controller)
            return inputs(controller, *row)

        monkeypatch.setattr(L1Controller, "_inputs", spy)
        decisions = L1Bank(controllers).decide(*args)
        assert calls == []
        assert all(_same_decision(d, want) for d, want in zip(decisions, expected))

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
        (decision,) = bank.decide(modules, *columns)
        row = [column if i == 5 else column[0] for i, column in enumerate(columns)]
        assert _same_decision(decision, _fresh_l1(trained_l1, module_spec).decide(*row))
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

    def test_many_rows_name_the_row(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        queues = np.zeros((3, 4))
        queues[2, 1] = -1.0
        set_points = {name: np.full(3, value) for name, value in self.BASE.items()}
        with pytest.raises(ControlError, match=re.escape("queues[2, 1] must be >= 0")):
            l1.decide_many(queues, np.ones((3, 4), dtype=bool), **set_points)
        set_points["rate_hat"][1] = 1.7e308
        with pytest.raises(ControlError, match=re.escape("expected_cost[1] must be finite")):
            l1.decide_many(np.zeros((3, 4)), np.ones((3, 4), dtype=bool), **set_points)

    def test_set_points_need_one_value_per_row(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        set_points = {name: np.full(2, value) for name, value in self.BASE.items()}
        with pytest.raises(ConfigurationError, match="need one value per row"):
            l1.decide_many(np.zeros((3, 4)), np.ones((3, 4), dtype=bool), **set_points)

    def test_no_rows_no_decisions(self, trained_l1, module_spec):
        l1 = _fresh_l1(trained_l1, module_spec)
        set_points = {name: np.zeros(0) for name in self.BASE}
        assert l1.decide_many(np.zeros((0, 4)), np.zeros((0, 4), dtype=bool), **set_points) == []
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
            want_cost, want_final = _reference_query(behavior_map, *point)
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
    return _reference_query(behavior_map, *point) != _reference_query(
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
            _, end = _reference_query(saturating, start, share, self.WORK)
            if end == target:
                break
            start = np.nextafter(start, np.inf if end < target else -np.inf)
        assert end == target
        assert _reference_query(tabled, 0.0, share, self.WORK)[1] == target
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
