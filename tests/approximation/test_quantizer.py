"""Tests for grid quantisation and the nearest-level rule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.approximation import GridQuantizer, level_pairs, nearest_level


#: Levels at least 2**-10 apart, far more than a distance's rounding
#: error, so no two levels tie by rounding alone.
_LEVELS = st.lists(
    st.integers(-(10**6), 10**6), min_size=1, max_size=12, unique=True
).map(lambda ints: [i / 1024 for i in sorted(ints)])


def _quantizer():
    return GridQuantizer([[0.0, 10.0, 20.0], [0.0, 0.5, 1.0]])


def _snap(quantizer, point):
    """The grid point nearest ``point``, dimension by dimension."""
    return tuple(
        levels[nearest_level(level_pairs(levels), value)]
        for levels, value in zip(quantizer.levels, point)
    )


class TestConstruction:
    def test_dimensions_and_cells(self):
        quantizer = _quantizer()
        assert quantizer.dimensions == 2
        assert quantizer.cell_count == 9

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            GridQuantizer([])

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ConfigurationError):
            GridQuantizer([[1.0, 0.0]])

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ConfigurationError):
            GridQuantizer([[1.0, 1.0]])

    @pytest.mark.parametrize(
        "levels", [[0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]]
    )
    def test_rejects_non_finite_levels(self, levels):
        # A NaN level compares false both ways, so a strictly-increasing
        # check alone lets it through, and nearby queries snap to it.
        with pytest.raises(ConfigurationError, match="finite"):
            GridQuantizer.from_dict({"levels": [levels]})

    def test_levels_are_plain_floats(self):
        quantizer = GridQuantizer([np.linspace(0.0, 1.0, 3), [0, 2]])
        assert quantizer.levels == [[0.0, 0.5, 1.0], [0.0, 2.0]]
        assert all(type(v) is float for level in quantizer.levels for v in level)


class TestSnap:
    def test_exact_point(self):
        assert _snap(_quantizer(), [10.0, 0.5]) == (10.0, 0.5)

    def test_rounds_to_nearest(self):
        assert _snap(_quantizer(), [4.9, 0.26]) == (0.0, 0.5)
        assert _snap(_quantizer(), [5.1, 0.24]) == (10.0, 0.0)
        # A tie goes to the lower level.
        assert _snap(_quantizer(), [15.0, 0.75]) == (10.0, 0.5)

    def test_clamps_outside_domain(self):
        assert _snap(_quantizer(), [-5.0, 2.0]) == (0.0, 1.0)
        assert _snap(_quantizer(), [100.0, -1.0]) == (20.0, 0.0)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    def test_snap_idempotent(self, a, b):
        quantizer = _quantizer()
        snapped = _snap(quantizer, [a, b])
        assert _snap(quantizer, snapped) == snapped

    @given(st.floats(min_value=0, max_value=20))
    def test_snap_is_nearest(self, value):
        quantizer = GridQuantizer([[0.0, 10.0, 20.0]])
        snapped = _snap(quantizer, [value])[0]
        distances = [abs(value - g) for g in (0.0, 10.0, 20.0)]
        assert abs(value - snapped) == pytest.approx(min(distances))

    @given(levels=_LEVELS, data=st.data())
    def test_nearest_level_is_brute_force_argmin(self, levels, data):
        # Inside the grid, on its levels and midpoints, and beyond both ends.
        midpoints = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        value = data.draw(
            st.one_of(
                st.floats(levels[0], levels[-1]),
                st.sampled_from(levels + midpoints),
                st.floats(-2000.0, 2000.0),
            )
        )
        distances = [abs(level - value) for level in levels]
        # min() keeps the first minimum: ties go to the lower index.
        want = min(range(len(levels)), key=distances.__getitem__)
        assert nearest_level(level_pairs(levels), value) == want

    def test_level_pairs_close_with_an_infinite_pair(self):
        pairs = level_pairs([[0.0, 1.0, 2.0], [5.0, np.inf, np.inf]])
        assert pairs.tolist() == [
            [[0.0, 1.0, 2.0], [5.0, np.inf, np.inf]],
            [[1.0, 2.0, np.inf], [np.inf, np.inf, np.inf]],
        ]
        assert nearest_level(pairs, [1e300, 1e300]).tolist() == [2, 0]

    @given(
        levels=_LEVELS,
        values=st.lists(st.floats(-2000.0, 2000.0), min_size=1, max_size=20),
        padding=st.integers(0, 3),
    )
    def test_padded_rows_snap_many_values_at_once(self, levels, values, padding):
        # One level row per value, ending in +inf padding that no finite
        # value snaps to, as the behaviour maps' array queries use them.
        row = levels + [np.inf] * padding
        got = nearest_level(level_pairs([row] * len(values)), values)
        want = [
            min(range(len(levels)), key=lambda i: abs(levels[i] - value))
            for value in values
        ]
        assert got.tolist() == want


class TestGridPoints:
    def test_enumerates_product(self):
        points = list(_quantizer().grid_points())
        assert len(points) == 9
        assert (0.0, 0.0) in points
        assert (20.0, 1.0) in points

    def test_all_points_snap_to_themselves(self):
        quantizer = _quantizer()
        for point in quantizer.grid_points():
            assert _snap(quantizer, point) == point

    def test_indices_follow_the_points(self):
        quantizer = _quantizer()
        for point, indices in zip(quantizer.grid_points(), quantizer.grid_indices()):
            assert point == tuple(
                levels[i] for levels, i in zip(quantizer.levels, indices)
            )
        assert len(list(quantizer.grid_indices())) == quantizer.cell_count


class TestGridQuantizerLevels:
    def test_an_empty_or_nested_level_set_is_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension 1 must be non-empty 1-D"):
            GridQuantizer([[0.0, 1.0], []])
        with pytest.raises(ConfigurationError, match="dimension 0 must be non-empty 1-D"):
            GridQuantizer([[[0.0, 1.0]]])
