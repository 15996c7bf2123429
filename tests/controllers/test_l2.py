"""Tests for the L2 cluster controller and module cost map."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.approximation.regression_tree import RegressionTree
from repro.common import ConfigurationError, ControlError
from repro.cluster import ClusterSpec, paper_module_spec, scaled_module_spec
from repro.controllers import L1Controller, L1Params, L2Controller, L2Params, ModuleCostMap
from repro.controllers.l2 import _module_training_grid
from repro.controllers.params import L0Params
from repro.core import enumerate_simplex, quantize_to_simplex
from repro.forecast.structural import WorkloadPredictor
from repro.sim import ClusterSimulation, EngineOptions
from repro.workload import ArrivalTrace

from helpers import tree_depth


@pytest.fixture(scope="module")
def module_map():
    """One trained module cost map shared by this test module."""
    return ModuleCostMap.train(paper_module_spec())


@pytest.fixture(scope="module")
def l2(module_map):
    return L2Controller([module_map] * 4)


def _cost(module_map, queue_avg, rate, work):
    """The cost tree's prediction for one interval."""
    return module_map.cost_tree.predict(np.array([queue_avg, rate, work]))


def _next_queue(module_map, queue_avg, rate, work):
    """The queue tree's predicted end-of-interval average queue."""
    return module_map.queue_tree.predict(np.array([queue_avg, rate, work]))


class TestModuleCostMap:
    def test_training_grid_has_192_cells(self, module_map):
        grid = ModuleCostMap.training_grid(module_map.spec)
        assert grid.cell_count == 6 * 16 * 2

    def test_cost_increases_with_load(self, module_map):
        low = _cost(module_map, 0.0, 20.0, 0.0175)
        high = _cost(module_map, 0.0, 180.0, 0.0175)
        assert high > low

    def test_cost_increases_with_backlog(self, module_map):
        empty = _cost(module_map, 0.0, 100.0, 0.0175)
        backed_up = _cost(module_map, 320.0, 100.0, 0.0175)
        assert backed_up > empty

    def test_next_queue_non_negative(self, module_map):
        for rate in (0.0, 60.0, 200.0):
            assert _next_queue(module_map, 50.0, rate, 0.0175) >= 0.0

    def test_overload_grows_queue(self, module_map):
        next_queue = _next_queue(module_map, 0.0, 230.0, 0.021)
        assert next_queue > 10.0

    def test_trees_are_compact(self, module_map):
        assert tree_depth(module_map.cost_tree) <= 10
        assert module_map.cost_tree.left.count(-1) <= 6 * 16 * 2

    def test_trees_fit_the_grid_array(self, module_map):
        # Each tree is fitted on the grid's points and one column of the
        # grid function's array; the artifact keeps only the trees.
        spec = module_map.spec
        levels = dict(
            queue_levels=np.array([0.0, 40.0]),
            rate_levels=np.array([0.0, 90.0, 180.0]),
            work_levels=np.array([0.0175]),
        )
        trained = ModuleCostMap.train(spec, **levels)
        points = list(ModuleCostMap.training_grid(spec, **levels).grid_points())
        outputs = _module_training_grid(
            spec, L1Controller._train_maps(spec, L0Params(), L1Params()),
            L1Params(), L0Params(), points,
        )
        for tree, column in ((trained.cost_tree, 0), (trained.queue_tree, 1)):
            want = RegressionTree(max_depth=10, min_samples_leaf=2).fit(
                np.array(points), outputs[:, column]
            )
            assert tree.to_dict() == want.to_dict()
        assert set(trained.to_dict()) == {"spec", "cost_tree", "queue_tree"}


class TestL2Decide:
    def test_gamma_sums_to_one(self, l2):
        decision = l2.decide(np.zeros(4), 300.0, 300.0, 0.0175)
        assert decision.gamma.sum() == pytest.approx(1.0)

    def test_gamma_on_quantised_grid(self, l2):
        decision = l2.decide(np.zeros(4), 300.0, 300.0, 0.0175)
        quanta = decision.gamma / 0.1
        assert np.allclose(quanta, np.rint(quanta))

    def test_avoids_backlogged_module(self, module_map):
        controller = L2Controller([module_map] * 2)
        decision = controller.decide(
            np.array([300.0, 0.0]), 150.0, 150.0, 0.0175
        )
        # Module 0 is deeply backlogged: it should receive less load.
        assert decision.gamma[0] <= decision.gamma[1]

    def test_exhaustive_explores_full_simplex(self, l2):
        decision = l2.decide(np.zeros(4), 300.0, 300.0, 0.0175)
        # 286 gamma vectors x 4 modules x 2 horizon terms.
        assert decision.states_explored == 286 * 4 * 2

    def test_shape_validation(self, l2):
        with pytest.raises(ConfigurationError):
            l2.decide(np.zeros(3), 100.0, 100.0, 0.0175)

    def test_requires_maps(self):
        with pytest.raises(ConfigurationError):
            L2Controller([])

    def test_stats_recorded(self, module_map):
        controller = L2Controller([module_map] * 4)
        controller.decide(np.zeros(4), 100.0, 100.0, 0.0175)
        assert controller.stats.invocations == 1


class TestRunInputs:
    """The L2 decides on the forecast and c-hat its run hands it."""

    def test_decides_on_a_fed_global_filter(self, module_map):
        controller = L2Controller([module_map] * 4)
        predictor = WorkloadPredictor()
        for _ in range(5):
            predictor.observe(36000.0)
        counts = predictor.forecast(2)
        period = L1Params().period  # T_L2 = T_L1
        decision = controller.decide(
            np.zeros(4),
            rate_hat=counts[0] / period,
            rate_next=counts[1] / period,
            work=0.0175,
        )
        assert decision.gamma.sum() == pytest.approx(1.0)

    def test_work_estimate_default(self, module_map, monkeypatch):
        """Without a warm-up the first L2 decision reads 17.5 ms."""
        works = []
        decide = L2Controller.decide

        def recording_decide(self, *args, **kwargs):
            works.append(kwargs["work"])
            return decide(self, *args, **kwargs)

        monkeypatch.setattr(L2Controller, "decide", recording_decide)
        spec = ClusterSpec(
            "pair", tuple(paper_module_spec(name=f"M{i}") for i in (1, 2))
        )
        ClusterSimulation(
            spec,
            ArrivalTrace(np.full(8, 3000.0), 30.0),
            engine_options=EngineOptions(warmup_intervals=0, mean_work=0.02),
        ).run()
        # Then the boundary EWMA has seen the first period's work.
        assert works == [0.0175, 0.02]


def _reference_decide(controller, queue_avgs, rate_hat, rate_next, work, gamma_current=None):
    """The per-candidate L2 scorer the share tables replaced (test oracle).

    Walks both regression trees once per candidate and module, as
    ``L2Controller.decide`` did before it gathered from share tables.
    Returns the decision fields plus how many candidates tied for the
    minimum and whether hysteresis held the current allocation.
    """
    params = controller.params
    step = params.gamma_step
    p = controller.module_count
    queue_avgs = np.asarray(queue_avgs, dtype=float)
    candidates = np.asarray(list(enumerate_simplex(p, step)))
    n = candidates.shape[0]
    machine_capacity = np.array(
        [m.spec.max_service_rate(0.0175) / m.spec.size for m in controller.maps]
    )
    costs = np.zeros(n)
    explored = 0
    for i, module_map in enumerate(controller.maps):
        features_now = np.column_stack(
            [np.full(n, queue_avgs[i]), candidates[:, i] * rate_hat, np.full(n, work)]
        )
        costs += module_map.cost_tree.predict(features_now)
        next_queues = np.clip(module_map.queue_tree.predict(features_now), 0.0, None)
        features_next = np.column_stack(
            [next_queues, candidates[:, i] * rate_next, np.full(n, work)]
        )
        costs += module_map.cost_tree.predict(features_next)
        explored += 2 * n
    if gamma_current is not None:
        shifted = np.clip(candidates - gamma_current, 0.0, None) * rate_hat
        costs += params.reconfiguration_weight * (shifted / machine_capacity).sum(axis=1)
    best_index = int(np.argmin(costs))
    best_cost = float(costs[best_index])
    best_gamma = candidates[best_index]
    tied = 1
    if gamma_current is not None:
        ties = np.flatnonzero(np.abs(costs - best_cost) <= 1e-12)
        tied = ties.size
        if tied > 1:
            distances = np.abs(candidates[ties] - gamma_current).sum(axis=1)
            best_index = int(ties[np.argmin(distances)])
            best_gamma = candidates[best_index]
    held = False
    if gamma_current is not None:
        current = quantize_to_simplex(gamma_current, step)
        matches = np.flatnonzero(np.all(np.abs(candidates - current) < 1e-9, axis=1))
        if matches.size:
            current_cost = float(costs[matches[0]])
            if best_cost >= (1.0 - params.switching_threshold) * current_cost:
                best_gamma, best_cost, held = current, current_cost, True
    return best_gamma, best_cost, explored, tied, held


def _assert_matches_reference(controller, *args, **kwargs):
    decision = controller.decide(*args, **kwargs)
    gamma, cost, explored, tied, held = _reference_decide(controller, *args, **kwargs)
    assert decision.gamma.tobytes() == gamma.tobytes()
    assert decision.expected_cost.hex() == cost.hex()
    assert decision.states_explored == explored
    return decision, tied, held


def _step_map(threshold: float) -> ModuleCostMap:
    """A module map costing 1 while its share is <= ``threshold`` req/s, else 10."""

    def tree(root):
        return RegressionTree.from_dict(
            {"max_depth": 1, "min_samples_leaf": 1, "n_features": 3, "root": root}
        )

    cost = tree(
        {
            "prediction": 5.5,
            "feature": 1,
            "threshold": threshold,
            "left": {"prediction": 1.0},
            "right": {"prediction": 10.0},
        }
    )
    return ModuleCostMap(paper_module_spec(), cost, tree({"prediction": 0.0}))


@pytest.fixture(scope="module")
def distinct_maps(module_map):
    """Five module maps with distinct trees and machine capacities."""
    return [
        module_map,
        ModuleCostMap.train(
            paper_module_spec(name="M2"),
            queue_levels=np.array([0.0, 30.0, 300.0]),
            rate_levels=np.linspace(0.0, 250.0, 9),
        ),
        ModuleCostMap.train(scaled_module_spec(2, name="M3")),
        ModuleCostMap.train(scaled_module_spec(3, name="M4")),
        ModuleCostMap.train(
            paper_module_spec(name="M5"), work_levels=np.array([0.012, 0.018, 0.024])
        ),
    ]


#: The parameter sets the solve is checked under: the defaults, no
#: reconfiguration charge (more exact ties), and strong hysteresis.
_L2_PARAMS = [
    L2Params(),
    L2Params(reconfiguration_weight=0.0),
    L2Params(switching_threshold=0.5),
]


def _allocation():
    """An off-grid or on-grid ``gamma_current`` (all-zero included)."""
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=5
    )
    return st.tuples(weights, st.booleans())


class TestShareTableSolve:
    """The share-table solve equals the per-candidate scorer bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_inputs_match_reference(self, distinct_maps, data):
        # One controller decides a sequence of calls, so its memo of the
        # current allocation sees None, repeats and A, B, A changes.
        count = data.draw(st.integers(2, 5), label="modules")
        order = data.draw(st.permutations(range(len(distinct_maps))), label="maps")
        params = data.draw(st.sampled_from(_L2_PARAMS), label="params")
        controller = L2Controller([distinct_maps[i] for i in order[:count]], params)
        capacity = sum(m.spec.max_service_rate(0.0175) for m in controller.maps)
        allocations = []
        for label in ("A", "B"):
            weights, on_grid = data.draw(_allocation(), label=label)
            gamma = np.resize(np.array(weights), count)
            allocations.append(quantize_to_simplex(gamma, 0.1) if on_grid else gamma)
        sequence = data.draw(
            st.lists(st.sampled_from([None, 0, 1]), min_size=1, max_size=5),
            label="sequence",
        )
        queue = st.one_of(st.just(0.0), st.floats(0.0, 200.0), st.floats(1280.0, 9000.0))
        rate = st.one_of(st.just(0.0), st.floats(0.0, 1.6 * capacity))
        for call in sequence:
            gamma_current = None if call is None else allocations[call].copy()
            decision, _, held = _assert_matches_reference(
                controller,
                np.array(data.draw(st.lists(queue, min_size=count, max_size=count))),
                data.draw(rate, label="rate_hat"),
                data.draw(rate, label="rate_next"),
                data.draw(st.one_of(st.just(0.0175), st.floats(0.011, 0.024))),
                gamma_current,
            )
            # A held decision hands out the kept allocation: the caller
            # cannot write it, so the next call still matches.
            with pytest.raises(ValueError):
                decision.gamma[0] = 0.5
            if held:
                assert decision.gamma.tobytes() == quantize_to_simplex(
                    gamma_current, 0.1
                ).tobytes()

    def test_a_held_gamma_cannot_be_written(self):
        controller = L2Controller(
            [_step_map(65.0)] * 2,
            L2Params(reconfiguration_weight=0.0, switching_threshold=0.9),
        )
        args = (np.zeros(2), 100.0, 100.0, 0.0175, np.array([0.9, 0.1]))
        decision = controller.decide(*args)
        with pytest.raises(ValueError):
            decision.gamma[:] = [0.0, 1.0]
        again, _, held = _assert_matches_reference(controller, *args)
        assert held and again.gamma.tolist() == pytest.approx([0.9, 0.1])

    def test_exact_tie_goes_to_the_candidate_nearest_the_current(self):
        # Shares of 40, 50 and 60 req/s on both modules all cost 4.0
        # exactly; the tie-break picks (0.6, 0.4), nearest (0.9, 0.1).
        controller = L2Controller(
            [_step_map(65.0)] * 2, L2Params(reconfiguration_weight=0.0)
        )
        decision, tied, held = _assert_matches_reference(
            controller, np.zeros(2), 100.0, 100.0, 0.0175, np.array([0.9, 0.1])
        )
        assert (tied, held) == (3, False)
        assert decision.expected_cost == 4.0
        assert decision.gamma.tolist() == pytest.approx([0.6, 0.4])

    def test_hysteresis_holds_the_current_allocation(self):
        controller = L2Controller(
            [_step_map(65.0)] * 2,
            L2Params(reconfiguration_weight=0.0, switching_threshold=0.9),
        )
        decision, tied, held = _assert_matches_reference(
            controller, np.zeros(2), 100.0, 100.0, 0.0175, np.array([0.9, 0.1])
        )
        assert held
        assert decision.expected_cost == 22.0
        assert decision.gamma.tolist() == pytest.approx([0.9, 0.1])

    def test_candidate_table_is_read_only(self, l2):
        decision = l2.decide(np.zeros(4), 300.0, 300.0, 0.0175)
        with pytest.raises(ValueError):
            decision.gamma[0] = 1.0


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("argument", ["queue_avgs", "rate_hat", "rate_next", "work"])
    def test_rejected_with_one_line(self, l2, argument, value):
        inputs = {
            "queue_avgs": np.zeros(4),
            "rate_hat": 300.0,
            "rate_next": 300.0,
            "work": 0.0175,
        }
        if argument == "queue_avgs":
            inputs["queue_avgs"] = np.array([0.0, 0.0, value, 0.0])
            expected = f"queue_avgs[2] must be finite, got {value!r}"
        else:
            inputs[argument] = value
            expected = f"{argument} must be finite, got {value!r}"
        with pytest.raises(ControlError) as caught:
            l2.decide(**inputs)
        assert str(caught.value) == expected


class TestInputDomain:
    """Inputs outside the L2's domain fail in one line, in the L1's words."""

    BASE = {"queue_avgs": np.zeros(4), "rate_hat": 300.0, "rate_next": 300.0, "work": 0.0175}

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"rate_hat": -50.0}, "rate_hat must be >= 0, got -50.0"),
            ({"rate_next": -1.0}, "rate_next must be >= 0, got -1.0"),
            ({"work": 0.0}, "work must be > 0, got 0.0"),
            ({"work": -1.0}, "work must be > 0, got -1.0"),
            (
                {"queue_avgs": np.array([0.0, 0.0, -3.0, 0.0])},
                "queue_avgs[2] must be >= 0, got -3.0",
            ),
            (
                {"gamma_current": np.array([0.5, 0.5, np.nan, 0.0])},
                "gamma_current[2] must be finite, got nan",
            ),
            (
                {"gamma_current": np.array([0.5, np.inf, 0.0, 0.0])},
                "gamma_current[1] must be finite, got inf",
            ),
            (
                {"gamma_current": np.array([0.6, 0.5, -0.1, 0.0])},
                "gamma_current[2] must be >= 0, got -0.1",
            ),
            # The scalars are checked before the allocation.
            (
                {"work": 0.0, "gamma_current": np.array([0.5, 0.5, np.nan, 0.0])},
                "work must be > 0, got 0.0",
            ),
        ],
    )
    def test_rejected_with_one_line(self, l2, change, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ControlError, match=f"^{re.escape(message)}$"):
                l2.decide(**{**self.BASE, **change})

    @pytest.mark.parametrize(
        "gamma", [np.array([0.5, 0.5, 0.0]), np.full((1, 4), 0.25), np.array(0.25)]
    )
    def test_a_mis_shaped_gamma_is_a_configuration_error(self, l2, gamma):
        with pytest.raises(ConfigurationError, match=r"^gamma_current must have shape \(4,\)$"):
            l2.decide(**self.BASE, gamma_current=gamma)

    def test_a_bad_allocation_after_a_kept_one_is_rejected(self, module_map):
        # The kept allocation skips the check only for its own bytes.
        controller = L2Controller([module_map] * 4)
        good = np.array([0.4, 0.3, 0.2, 0.1])
        controller.decide(**self.BASE, gamma_current=good)
        with pytest.raises(ControlError, match=r"^gamma_current\[3\] must be >= 0, got -0.1$"):
            controller.decide(**self.BASE, gamma_current=np.array([0.4, 0.3, 0.4, -0.1]))
        _assert_matches_reference(controller, *self.BASE.values(), gamma_current=good)


class TestRecordedRuns:
    # zipfmix's c-hat crosses the trees' one work split, 0.0175, both ways.
    @pytest.mark.parametrize(
        "scenario",
        ["paper/fig6-cluster16", "paper/fig6-cluster20", "workloads/zipfmix-cluster16"],
    )
    def test_every_solve_matches_reference(self, monkeypatch, scenario):
        """Each L2 decision of a run equals the per-candidate scorer's."""
        decide = L2Controller.decide
        checked = []

        def checking_decide(
            controller, queue_avgs, rate_hat, rate_next, work, gamma_current=None
        ):
            args = (queue_avgs, rate_hat, rate_next, work, gamma_current)
            decision = decide(controller, *args)
            gamma, cost, explored, _, _ = _reference_decide(controller, *args)
            checked.append(
                decision.gamma.tobytes() == gamma.tobytes()
                and decision.expected_cost.hex() == cost.hex()
                and decision.states_explored == explored
            )
            return decision

        monkeypatch.setattr(L2Controller, "decide", checking_decide)
        repro.run_scenario(repro.get_scenario(scenario, samples=48))
        assert len(checked) == 48 and all(checked)
