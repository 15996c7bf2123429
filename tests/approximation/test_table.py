"""Tests for the dense hash-table abstraction map."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.approximation import GridQuantizer, LookupTableMap, level_pairs, nearest_level

from helpers import table_cell as _at


def _quantizer():
    return GridQuantizer([[0.0, 1.0, 2.0], [0.0, 10.0]])


def _table(output_dim=1):
    """One row per cell of a 3 x 2 grid; row r holds (r, 10 r)[:output_dim]."""
    rows = [[float(r), 10.0 * r][:output_dim] for r in range(6)]
    return LookupTableMap(_quantizer(), rows)


def _query(table, point):
    """The row of the cell nearest ``point``."""
    levels = table.quantizer.levels
    return _at(
        table, tuple(nearest_level(level_pairs(lv), v) for lv, v in zip(levels, point))
    )


class TestRowsAndLookup:
    def test_roundtrip(self):
        table = _table()
        # (1.0, 10.0) is cell (1, 1), the fourth in row-major order.
        assert _at(table, (1, 1)) == (3.0,)
        assert _query(table, [1.0, 10.0])[0] == 3.0

    def test_query_snaps(self):
        assert _query(_table(), [1.2, 8.0])[0] == 3.0

    def test_vector_outputs(self):
        table = _table(output_dim=2)
        assert table.output_dim == 2
        assert np.allclose(_at(table, (0, 1)), [1.0, 10.0])

    def test_rows_follow_the_row_major_grid(self):
        table = _table()
        assert table.strides == (2, 1)
        flat = [_at(table, indices)[0] for indices in table.quantizer.grid_indices()]
        assert flat == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_rows_are_one_read_only_array(self):
        # The table keeps its rows as one float64 array that queries
        # gather from.
        table = LookupTableMap(_quantizer(), np.arange(12.0).reshape(6, 2))
        assert table.rows.dtype == np.float64 and table.rows.shape == (6, 2)
        with pytest.raises(ValueError):
            table.rows[0, 0] = 1.0
        assert _at(table, (2, 1)) == (10.0, 11.0)

    def test_rows_are_copied_from_the_input(self):
        outputs = np.arange(12.0).reshape(6, 2)
        table = LookupTableMap(_quantizer(), outputs)
        outputs[0, 0] = 99.0
        assert _at(table, (0, 0)) == (0.0, 1.0)

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
