"""Tests for the simulation-based learning data and tree fitting."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.approximation import GridQuantizer, TrainingSet, train_tree


def _quantizer():
    return GridQuantizer([np.linspace(0, 1, 5), np.linspace(0, 10, 5)])


def _dataset(simulate):
    """``simulate`` at every grid point, handed over as one array."""
    points = list(_quantizer().grid_points())
    outputs = np.array([simulate(point) for point in points], dtype=float)
    return TrainingSet(points, list(outputs))


class TestTrainTree:
    def test_tree_fits_table_data(self):
        dataset = _dataset(lambda p: [3.0 if p[0] > 0.5 else 1.0])
        tree = train_tree(dataset, max_depth=3)
        assert tree.predict_one([0.0, 5.0]) == pytest.approx(1.0)
        assert tree.predict_one([1.0, 5.0]) == pytest.approx(3.0)

    def test_target_column_selection(self):
        dataset = _dataset(lambda p: [p[0], 100 * p[0]])
        tree = train_tree(dataset, target_column=1)
        assert tree.predict_one([1.0, 0.0]) > 50.0

    def test_bad_target_column(self):
        dataset = _dataset(lambda p: [1.0])
        with pytest.raises(ConfigurationError):
            train_tree(dataset, target_column=5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            train_tree(TrainingSet())


class TestTrainingSet:
    def test_as_arrays(self):
        dataset = TrainingSet(
            [(1.0, 2.0), (4.0, 5.0)], [np.array([3.0]), np.array([6.0])]
        )
        x, y = dataset.as_arrays()
        assert x.shape == (2, 2)
        assert y.shape == (2, 1)

    def test_built_from_a_grid_array_at_once(self):
        dataset = _dataset(lambda p: [p[0] + p[1], p[0]])
        assert dataset.size == 25
        assert dataset.inputs == list(_quantizer().grid_points())
        x, y = dataset.as_arrays()
        assert np.array_equal(y[:, 0], x[:, 0] + x[:, 1])

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match="2 inputs, 1 outputs"):
            TrainingSet([(0.0,), (1.0,)], [np.array([1.0])])
