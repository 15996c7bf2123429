"""Tests for the dense hash-table abstraction map."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.approximation import GridQuantizer, LookupTableMap, nearest_level


def _quantizer():
    return GridQuantizer([[0.0, 1.0, 2.0], [0.0, 10.0]])


def _table(output_dim=1):
    """One row per cell of a 3 x 2 grid; row r holds (r, 10 r)[:output_dim]."""
    rows = [[float(r), 10.0 * r][:output_dim] for r in range(6)]
    return LookupTableMap(_quantizer(), rows)


def _query(table, point):
    """The row of the cell nearest ``point``."""
    levels = table.quantizer.levels
    return table.at(tuple(nearest_level(lv, v) for lv, v in zip(levels, point)))


class TestRowsAndLookup:
    def test_roundtrip(self):
        table = _table()
        # (1.0, 10.0) is cell (1, 1), the fourth in row-major order.
        assert table.at((1, 1)) == (3.0,)
        assert _query(table, [1.0, 10.0])[0] == 3.0

    def test_query_snaps(self):
        assert _query(_table(), [1.2, 8.0])[0] == 3.0

    def test_vector_outputs(self):
        table = _table(output_dim=2)
        assert table.output_dim == 2
        assert np.allclose(table.at((0, 1)), [1.0, 10.0])

    def test_rows_follow_the_row_major_grid(self):
        table = _table()
        flat = [table.at(indices)[0] for indices in table.quantizer.grid_indices()]
        assert flat == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_rows_are_python_floats(self):
        # A numpy array hands its rows over as tuples of Python floats,
        # so a lookup converts nothing.
        table = LookupTableMap(_quantizer(), np.arange(12.0).reshape(6, 2))
        row = table.at((2, 1))
        assert row == (10.0, 11.0)
        assert type(row) is tuple and all(type(v) is float for v in row)

    def test_wrong_output_dim_rejected(self):
        rows = [[1.0, 2.0]] * 5 + [[1.0]]
        with pytest.raises(ConfigurationError):
            LookupTableMap(_quantizer(), rows)

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            LookupTableMap(_quantizer(), [[]] * 6)

    def test_row_count_must_match_the_grid(self):
        with pytest.raises(ConfigurationError, match="5 rows for 6 cells"):
            LookupTableMap(_quantizer(), [[1.0]] * 5)
