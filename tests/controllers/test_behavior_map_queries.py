"""ComputerBehaviorMap query regimes: exact hits, off-grid, saturation.

Satellite coverage for the map's three answer paths — exact cell hits
(compared with the stored table row), off-grid queries
snapping to the nearest cell, and the closed-form saturated rollout for
arrival rates beyond the trained domain — and for answering many points
in one array query.
"""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.approximation import GridQuantizer, LookupTableMap, level_pairs, nearest_level
from repro.cluster.processor import processor_profile
from repro.cluster.specs import ComputerSpec
from repro.controllers.l1 import ComputerBehaviorMap

from helpers import behavior_map_query, table_cell


def _stored(behavior_map, point):
    """The table row of the grid cell nearest ``point``."""
    levels = behavior_map.table.quantizer.levels
    return table_cell(
        behavior_map.table,
        tuple(nearest_level(level_pairs(lv), v) for lv, v in zip(levels, point)),
    )


def _fluid_rollout(behavior_map, q, rate, work):
    """Eqs. (5)-(7) at max frequency, re-derived by hand for one point."""
    params = behavior_map.l0_params
    spec = behavior_map.spec
    speed = spec.effective_speed_factor
    capacity = speed / work * params.period
    power = spec.base_power + spec.power_scale
    expected_cost = 0.0
    for _ in range(behavior_map.substeps):
        q = max(0.0, q + rate * params.period - capacity)
        response = (1.0 + q) * work / speed
        expected_cost += params.weights.tracking * max(
            0.0, response - params.target_response
        )
        expected_cost += params.weights.operating * power
    return expected_cost, q


@pytest.fixture(scope="module")
def behavior_map() -> ComputerBehaviorMap:
    return ComputerBehaviorMap.train(
        ComputerSpec(name="C4", processor=processor_profile("c4"))
    )


class TestExactHits:
    def test_grid_point_query_matches_table(self, behavior_map):
        point = (5.0, 10.0, 0.0175)
        cost, next_queue = behavior_map_query(behavior_map, *point)
        stored = _stored(behavior_map, point)
        assert cost == stored[0]
        assert next_queue == stored[1]

    def test_many_points_in_one_query(self, behavior_map):
        # An array query answers each point as a query of that point
        # alone would: in the grid, off it and past the trained rates.
        top = behavior_map._max_trained_rate
        points = [(5.0, 10.0, 0.0175), (4.9, 10.3, 0.02), (700.0, 2 * top, 0.012)]
        costs, finals = behavior_map_query(behavior_map, *np.array(points).T)
        assert costs.shape == finals.shape == (3,)
        for point, cost, final in zip(points, costs, finals):
            assert (cost, final) == behavior_map_query(behavior_map, *point)


class TestOffGridQueries:
    def test_off_grid_point_snaps_to_nearest_cell(self, behavior_map):
        # 4.9 sits between the 2.0 and 5.0 queue levels, nearer 5.0.
        near = behavior_map_query(behavior_map, 4.9, 10.3, 0.0175)
        snapped = behavior_map_query(behavior_map, 5.0, 10.3, 0.0175)
        assert near == snapped

    def test_below_grid_clamps_to_first_cell(self, behavior_map):
        assert behavior_map_query(behavior_map, -3.0, 10.0, 0.0175) == (
            behavior_map_query(behavior_map, 0.0, 10.0, 0.0175)
        )

    def test_work_beyond_levels_clamps_to_edge(self, behavior_map):
        assert behavior_map_query(behavior_map, 5.0, 10.0, 0.5) == (
            behavior_map_query(behavior_map, 5.0, 10.0, 0.023)
        )


class TestSaturatedRollout:
    def test_beyond_grid_rate_uses_closed_form(self, behavior_map):
        rate = behavior_map._max_trained_rate * 1.5
        assert behavior_map_query(behavior_map, 0.0, rate, 0.0175) == (
            _fluid_rollout(behavior_map, 0.0, rate, 0.0175)
        )

    def test_closed_form_matches_fluid_equations(self, behavior_map):
        rate = behavior_map._max_trained_rate * 2.0
        expected_cost, q = _fluid_rollout(behavior_map, 40.0, rate, 0.0175)
        cost, next_queue = behavior_map_query(behavior_map, 40.0, rate, 0.0175)
        assert cost == pytest.approx(expected_cost, rel=1e-12)
        assert next_queue == pytest.approx(q, rel=1e-12)

    def test_overload_cost_grows_with_rate(self, behavior_map):
        base = behavior_map._max_trained_rate
        costs = [
            behavior_map_query(behavior_map, 10.0, base * factor, 0.0175)[0]
            for factor in (1.1, 1.5, 2.5)
        ]
        assert costs[0] < costs[1] < costs[2]

    def test_overload_queue_grows_without_bound(self, behavior_map):
        rate = behavior_map._max_trained_rate * 2.0
        _, q1 = behavior_map_query(behavior_map, 0.0, rate, 0.0175)
        _, q2 = behavior_map_query(behavior_map, q1, rate, 0.0175)
        assert q2 > q1 > 0.0

    def test_rate_at_grid_edge_still_uses_table(self, behavior_map):
        # The boundary itself is trained domain: answered from the
        # stored cell, not the closed form (at deep overload the two
        # may agree numerically — the L0 provably runs flat out — but
        # the answer must be the table's).
        rate = behavior_map._max_trained_rate
        stored = _stored(behavior_map, (5.0, rate, 0.0175))
        cost, next_queue = behavior_map_query(behavior_map, 5.0, rate, 0.0175)
        assert cost == stored[0]
        assert next_queue == stored[1]


class TestPayloadShape:
    """A cached artifact is outside data: its table must fit the map."""

    @pytest.mark.parametrize(
        "levels, width",
        [
            ([[0.0, 10.0], [0.0, 50.0]], 2),  # no work dimension
            ([[0.0, 10.0], [0.0, 50.0], [0.0175]], 1),  # no final queue
        ],
    )
    def test_misshapen_table_rejected_on_load(self, behavior_map, levels, width):
        payload = behavior_map.to_dict()
        table = LookupTableMap(GridQuantizer(levels), [[1.0] * width] * 4)
        payload["table"] = table.to_dict()
        with pytest.raises(ConfigurationError, match="behaviour map's table"):
            ComputerBehaviorMap.from_dict(payload)
