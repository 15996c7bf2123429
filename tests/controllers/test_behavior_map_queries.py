"""ComputerBehaviorMap query regimes: exact hits, off-grid, saturation.

Satellite coverage for the map's three answer paths — exact cell hits
through the public :meth:`LookupTableMap.exact_at`, off-grid queries
snapping to the nearest cell, and the closed-form saturated rollout for
arrival rates beyond the trained domain.
"""

import pytest

from repro.cluster.processor import processor_profile
from repro.cluster.specs import ComputerSpec
from repro.controllers.l1 import ComputerBehaviorMap


@pytest.fixture(scope="module")
def behavior_map() -> ComputerBehaviorMap:
    return ComputerBehaviorMap.train(
        ComputerSpec(name="C4", processor=processor_profile("c4"))
    )


class TestExactHits:
    def test_grid_point_query_matches_table(self, behavior_map):
        point = (5.0, 10.0, 0.0175)
        cost, next_queue = behavior_map.cost_and_next_queue(*point)
        stored = behavior_map.table.query(point)
        assert cost == stored[0]
        assert next_queue == stored[1]

    def test_no_private_table_access(self, behavior_map):
        # The hot path goes through the public exact-hit API.
        key = behavior_map.table.quantizer.snap_indices((5.0, 10.0, 0.0175))
        hit = behavior_map.table.exact_at(key)
        assert hit is not None
        assert behavior_map.table.exact((5.0, 10.0, 0.0175)) is hit


class TestOffGridQueries:
    def test_off_grid_point_snaps_to_nearest_cell(self, behavior_map):
        # 4.9 sits between the 2.0 and 5.0 queue levels, nearer 5.0.
        near = behavior_map.cost_and_next_queue(4.9, 10.3, 0.0175)
        snapped = behavior_map.cost_and_next_queue(5.0, 10.3, 0.0175)
        assert near == snapped

    def test_below_grid_clamps_to_first_cell(self, behavior_map):
        assert behavior_map.cost_and_next_queue(-3.0, 10.0, 0.0175) == (
            behavior_map.cost_and_next_queue(0.0, 10.0, 0.0175)
        )

    def test_work_beyond_levels_clamps_to_edge(self, behavior_map):
        assert behavior_map.cost_and_next_queue(5.0, 10.0, 0.5) == (
            behavior_map.cost_and_next_queue(5.0, 10.0, 0.023)
        )


class TestSaturatedRollout:
    def test_beyond_grid_rate_uses_closed_form(self, behavior_map):
        rate = behavior_map._max_trained_rate * 1.5
        assert behavior_map.cost_and_next_queue(0.0, rate, 0.0175) == (
            behavior_map._saturated_rollout(0.0, rate, 0.0175)
        )

    def test_closed_form_matches_fluid_equations(self, behavior_map):
        # Re-derive eqs. (5)-(7) at max frequency by hand for one cell.
        params = behavior_map.l0_params
        spec = behavior_map.spec
        rate = behavior_map._max_trained_rate * 2.0
        work = 0.0175
        speed = spec.effective_speed_factor
        capacity = speed / work * params.period
        power = spec.base_power + spec.power_scale
        q = 40.0
        expected_cost = 0.0
        for _ in range(behavior_map.substeps):
            q = max(0.0, q + rate * params.period - capacity)
            response = (1.0 + q) * work / speed
            expected_cost += params.weights.tracking * max(
                0.0, response - params.target_response
            )
            expected_cost += params.weights.operating * power
        cost, next_queue = behavior_map.cost_and_next_queue(40.0, rate, work)
        assert cost == pytest.approx(expected_cost, rel=1e-12)
        assert next_queue == pytest.approx(q, rel=1e-12)

    def test_overload_cost_grows_with_rate(self, behavior_map):
        base = behavior_map._max_trained_rate
        costs = [
            behavior_map.cost_and_next_queue(10.0, base * factor, 0.0175)[0]
            for factor in (1.1, 1.5, 2.5)
        ]
        assert costs[0] < costs[1] < costs[2]

    def test_overload_queue_grows_without_bound(self, behavior_map):
        rate = behavior_map._max_trained_rate * 2.0
        _, q1 = behavior_map.cost_and_next_queue(0.0, rate, 0.0175)
        _, q2 = behavior_map.cost_and_next_queue(q1, rate, 0.0175)
        assert q2 > q1 > 0.0

    def test_rate_at_grid_edge_still_uses_table(self, behavior_map):
        # The boundary itself is trained domain: answered from the
        # stored cell, not the closed form (at deep overload the two
        # may agree numerically — the L0 provably runs flat out — but
        # the answer must be the table's).
        rate = behavior_map._max_trained_rate
        stored = behavior_map.table.query((5.0, rate, 0.0175))
        cost, next_queue = behavior_map.cost_and_next_queue(5.0, rate, 0.0175)
        assert cost == stored[0]
        assert next_queue == stored[1]
