"""TrainingPlan: one grid function call, outputs stored in grid order."""

import pytest

from repro.approximation.quantizer import GridQuantizer
from repro.common.errors import ConfigurationError
from repro.maps.plan import TrainingPlan


def _quantizer() -> GridQuantizer:
    return GridQuantizer([[0.0, 1.0, 2.0], [10.0, 20.0]])


class TestSerialExecution:
    """The plan calls its grid function once, in this process."""

    def test_fills_every_cell_in_grid_order(self):
        plan = TrainingPlan(
            simulate=lambda points: [[p[0] + p[1]] for p in points],
            quantizer=_quantizer(),
        )
        table, dataset = plan.execute()
        assert table.entries == 6
        assert plan.cell_count == 6
        assert dataset.inputs[0] == (0.0, 10.0)
        assert dataset.inputs[-1] == (2.0, 20.0)
        assert table.query([1.0, 20.0])[0] == 21.0

    def test_output_arity_mismatch_fails_loudly(self):
        plan = TrainingPlan(
            simulate=lambda points: [[1.0, 2.0] for _ in points],
            quantizer=_quantizer(),
            output_dim=1,
        )
        with pytest.raises(ConfigurationError):
            plan.execute()

    def test_one_call_sees_every_point_in_row_major_order(self):
        calls = []

        def simulate(points):
            calls.append(list(points))
            return [[0.0] for _ in points]

        TrainingPlan(simulate=simulate, quantizer=_quantizer()).execute()
        assert calls == [list(_quantizer().grid_points())]

    def test_output_count_mismatch_fails_loudly(self):
        plan = TrainingPlan(
            simulate=lambda points: [[0.0]], quantizer=_quantizer()
        )
        with pytest.raises(ConfigurationError, match="1 outputs for 6 grid points"):
            plan.execute()
