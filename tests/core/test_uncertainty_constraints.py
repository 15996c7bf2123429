"""Tests for uncertainty-band sampling and constraint sets."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.core import CallableConstraint, ConstraintSet, three_point_band


class TestThreePointBand:
    def test_samples(self):
        assert np.allclose(three_point_band(10.0, 2.0), [8.0, 10.0, 12.0])

    def test_floor_clipping(self):
        assert np.allclose(three_point_band(1.0, 5.0), [0.0, 1.0, 6.0])

    def test_zero_delta_degenerates(self):
        assert np.allclose(three_point_band(5.0, 0.0), [5.0, 5.0, 5.0])

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigurationError):
            three_point_band(1.0, -1.0)


class TestConstraints:
    def test_constraint_set_conjunction(self):
        constraints = ConstraintSet(
            [
                CallableConstraint(lambda s: s[0] >= 0, name="non-negative"),
                CallableConstraint(lambda s: s[0] < 5),
            ]
        )
        assert constraints.satisfied([1.0])
        assert not constraints.satisfied([-1.0])
        assert not constraints.satisfied([6.0])
        assert len(constraints) == 2

    def test_empty_set_admits_everything(self):
        assert ConstraintSet().satisfied([123.0])
