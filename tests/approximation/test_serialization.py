"""JSON round-trips for the approximation primitives (loss-free floats)."""

import json

import numpy as np
import pytest

from repro.approximation import (
    GridQuantizer,
    LookupTableMap,
    RegressionTree,
    TrainingSet,
)
from repro.common.errors import ConfigurationError


def _json_cycle(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestGridQuantizer:
    def test_round_trip_exact(self):
        quantizer = GridQuantizer([[0.1, 0.2, 0.7], np.linspace(0, 1.4, 5)])
        rebuilt = GridQuantizer.from_dict(_json_cycle(quantizer.to_dict()))
        assert len(rebuilt.levels) == len(quantizer.levels)
        for a, b in zip(rebuilt.levels, quantizer.levels):
            assert np.array_equal(a, b)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            GridQuantizer.from_dict({})


def _dense_payload() -> dict:
    """A 2 x 3 table's payload: six cells, row-major, two outputs each."""
    rows = [[1.0 / (r + 3.0), 2.0 / (r + 7.0)] for r in range(6)]
    return LookupTableMap(
        GridQuantizer([[0.0, 1.0], [0.0, 1.0, 2.0]]), rows
    ).to_dict()


class TestLookupTableMap:
    def test_round_trip_exact(self):
        table = LookupTableMap.from_dict(_dense_payload())
        rebuilt = LookupTableMap.from_dict(_json_cycle(table.to_dict()))
        assert rebuilt.rows.tobytes() == table.rows.tobytes()
        assert rebuilt.to_dict() == table.to_dict()

    def test_cells_serialise_in_row_major_order(self):
        payload = _dense_payload()
        assert [key for key, _ in payload["cells"]] == [
            [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]
        ]
        assert payload["output_dim"] == 2

    def test_bad_cell_shapes_rejected(self):
        payload = LookupTableMap(
            GridQuantizer([[0.0, 1.0]]), [[0.0], [0.0]]
        ).to_dict()
        payload["cells"] = [[[0, 0], [1.0]]]  # key arity != dimensions
        with pytest.raises(ConfigurationError):
            LookupTableMap.from_dict(payload)


def _assert_rejected(payload: dict, match: str) -> None:
    with pytest.raises(ConfigurationError, match=match) as excinfo:
        LookupTableMap.from_dict(payload)
    assert "\n" not in str(excinfo.value)


class TestLookupTablePayloadChecks:
    """``from_dict`` takes outside data: every cell once, in order, full width."""

    def test_sparse_cells_rejected(self):
        payload = _dense_payload()
        del payload["cells"][4]
        _assert_rejected(payload, "5 cells for a grid of 6")

    def test_duplicated_cell_rejected(self):
        payload = _dense_payload()
        payload["cells"][4] = payload["cells"][3]
        _assert_rejected(payload, r"cell \[1, 0\] where .* has \[1, 1\]")

    def test_reordered_cells_rejected(self):
        payload = _dense_payload()
        cells = payload["cells"]
        cells[1], cells[2] = cells[2], cells[1]
        _assert_rejected(payload, r"cell \[0, 2\] where .* has \[0, 1\]")

    def test_out_of_range_cell_rejected(self):
        payload = _dense_payload()
        payload["cells"][5][0] = [1, 3]
        _assert_rejected(payload, r"cell \[1, 3\] where .* has \[1, 2\]")

    def test_overrunning_cell_list_rejected(self):
        payload = _dense_payload()
        payload["cells"].append([[2, 0], [0.0, 0.0]])
        _assert_rejected(payload, "7 cells for a grid of 6")

    def test_wrong_width_rejected(self):
        payload = _dense_payload()
        payload["cells"][2][1] = [1.0]
        _assert_rejected(payload, r"cell \[0, 2\] has 1 outputs, expected 2")


class TestRegressionTree:
    def test_round_trip_predicts_identically(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(64, 3))
        y = x[:, 0] * 2.0 + (x[:, 1] > 0.5) * 3.0
        tree = RegressionTree(max_depth=4).fit(x, y)
        rebuilt = RegressionTree.from_dict(_json_cycle(tree.to_dict()))
        assert np.array_equal(rebuilt.predict(x), tree.predict(x))
        assert rebuilt.depth == tree.depth
        assert rebuilt.leaf_count == tree.leaf_count

    def test_unfitted_tree_cannot_serialise(self):
        from repro.common.errors import NotTrainedError

        with pytest.raises(NotTrainedError):
            RegressionTree().to_dict()


class TestTrainingSet:
    def test_round_trip_exact(self):
        dataset = TrainingSet(
            [(0.1, 0.2), (0.3, 0.4)], [np.array([1.0 / 3.0]), np.array([2.0 / 7.0])]
        )
        rebuilt = TrainingSet.from_dict(_json_cycle(dataset.to_dict()))
        assert rebuilt.inputs == dataset.inputs
        for a, b in zip(rebuilt.outputs, dataset.outputs):
            assert np.array_equal(a, b)

    def test_misaligned_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingSet.from_dict({"inputs": [[0.0]], "outputs": []})
