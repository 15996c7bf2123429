"""Tests for the hash-table abstraction map."""

import numpy as np
import pytest

from repro.common import ConfigurationError, NotTrainedError
from repro.approximation import GridQuantizer, LookupTableMap


def _table(output_dim=1):
    quantizer = GridQuantizer([[0.0, 1.0, 2.0], [0.0, 10.0]])
    return LookupTableMap(quantizer, output_dim=output_dim)


class TestStoreQuery:
    def test_roundtrip(self):
        table = _table()
        table.store([1.0, 10.0], [42.0])
        assert table.query([1.0, 10.0])[0] == 42.0

    def test_query_snaps(self):
        table = _table()
        table.store([1.0, 10.0], [42.0])
        assert table.query([1.2, 8.0])[0] == 42.0

    def test_empty_table_raises(self):
        with pytest.raises(NotTrainedError):
            _table().query([0.0, 0.0])

    def test_nearest_populated_fallback(self):
        table = _table()
        table.store([0.0, 0.0], [7.0])
        # Distant, unpopulated cell falls back to the only entry.
        assert table.query([2.0, 10.0])[0] == 7.0

    def test_vector_outputs(self):
        table = _table(output_dim=2)
        table.store([0.0, 0.0], [1.0, 2.0])
        assert np.allclose(table.query([0.0, 0.0]), [1.0, 2.0])

    def test_wrong_output_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            _table(output_dim=2).store([0.0, 0.0], [1.0])

    def test_query_returns_copy(self):
        table = _table()
        table.store([0.0, 0.0], [1.0])
        out = table.query([0.0, 0.0])
        out[0] = 99.0
        assert table.query([0.0, 0.0])[0] == 1.0

    def test_entries_and_coverage(self):
        table = _table()
        table.store([0.0, 0.0], [1.0])
        table.store([1.0, 0.0], [1.0])
        assert table.entries == 2
        assert table.coverage == pytest.approx(2 / 6)

    def test_store_overwrites_same_cell(self):
        table = _table()
        table.store([0.0, 0.0], [1.0])
        table.store([0.1, 0.1], [5.0])  # snaps to the same cell
        assert table.entries == 1
        assert table.query([0.0, 0.0])[0] == 5.0
