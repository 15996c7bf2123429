"""Tests for the ArrivalTrace container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.workload import ArrivalTrace


def _trace(counts=(10, 20, 30, 40), bin_seconds=30.0):
    return ArrivalTrace(np.asarray(counts, dtype=float), bin_seconds)


class TestConstruction:
    def test_basic_properties(self):
        trace = _trace()
        assert len(trace) == 4
        assert trace.duration == pytest.approx(120.0)
        assert trace.counts.sum() == pytest.approx(100.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ArrivalTrace(np.zeros(0), 30.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            _trace(counts=(-1, 2))

    def test_rejects_bad_bin_width(self):
        with pytest.raises(ConfigurationError):
            _trace(bin_seconds=0.0)

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            ArrivalTrace(np.ones((2, 2)), 30.0)


class TestTransforms:
    def test_scaled(self):
        assert _trace().scaled(4.0).counts.sum() == pytest.approx(400.0)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            _trace().scaled(0.0)

    def test_sliced(self):
        sliced = _trace().sliced(1, 3)
        assert np.allclose(sliced.counts, [20, 30])

    def test_sliced_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            _trace().sliced(4)

    def test_rebin_coarser_sums(self):
        coarse = _trace().rebinned(60.0)
        assert np.allclose(coarse.counts, [30, 70])
        assert coarse.bin_seconds == 60.0

    def test_rebin_finer_splits(self):
        fine = _trace().rebinned(15.0)
        assert len(fine) == 8
        assert fine.counts[0] == pytest.approx(5.0)
        assert fine.counts.sum() == pytest.approx(100.0)

    def test_rebin_same_width_is_identity(self):
        trace = _trace()
        assert trace.rebinned(30.0) is trace

    def test_rebin_coarser_than_the_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="too short to rebin"):
            _trace().rebinned(150.0)

    def test_rebin_non_integer_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            _trace().rebinned(45.0)
        with pytest.raises(ConfigurationError):
            _trace().rebinned(13.0)

    @given(st.integers(min_value=1, max_value=6))
    def test_rebin_round_trip_conserves_total(self, factor):
        trace = _trace(counts=np.arange(1, 25, dtype=float))
        coarse = trace.rebinned(30.0 * factor)
        assert coarse.counts.sum() == pytest.approx(
            trace.counts[: len(coarse) * factor].sum()
        )


class TestCsvPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "# bin_seconds=30.0\ntime_seconds,count\n0,10.5\n30,20.25\n60,0\n90,40\n"
        )
        loaded = ArrivalTrace.load_file(path)
        assert loaded.bin_seconds == 30.0
        assert loaded.counts.tolist() == [10.5, 20.25, 0.0, 40.0]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_seconds,count\n0,10\n")
        with pytest.raises(ConfigurationError, match="carries no bin width"):
            ArrivalTrace.load_file(path)


class TestLoadFile:
    def _load(self, tmp_path, text, **kwargs):
        from repro.workload import ArrivalTrace

        path = tmp_path / "trace.txt"
        path.write_text(text)
        return ArrivalTrace.load_file(path, **kwargs)

    def test_rate_units_scale_by_bin_width(self, tmp_path):
        trace = self._load(
            tmp_path,
            "time_seconds,rate_rps\n0,10\n120,20\n240,30\n",
            units="rate",
        )
        assert trace.bin_seconds == 120.0
        assert np.allclose(trace.counts, [1200.0, 2400.0, 3600.0])

    def test_bin_width_inferred_from_time_column(self, tmp_path):
        trace = self._load(tmp_path, "0,5\n60,7\n120,9\n")
        assert trace.bin_seconds == 60.0
        assert np.allclose(trace.counts, [5.0, 7.0, 9.0])

    def test_whitespace_delimited(self, tmp_path):
        trace = self._load(tmp_path, "0 5\n30 7\n60 9\n")
        assert trace.bin_seconds == 30.0
        assert np.allclose(trace.counts, [5.0, 7.0, 9.0])

    def test_explicit_column_pick(self, tmp_path):
        trace = self._load(
            tmp_path, "0,100,5\n30,200,7\n", column=1, bin_seconds=30.0
        )
        assert np.allclose(trace.counts, [100.0, 200.0])

    def test_single_column_with_explicit_bin(self, tmp_path):
        trace = self._load(tmp_path, "5\n7\n9\n", bin_seconds=30.0)
        assert np.allclose(trace.counts, [5.0, 7.0, 9.0])

    def test_header_comment_wins_without_argument(self, tmp_path):
        trace = self._load(tmp_path, "# bin_seconds=15\n5\n7\n")
        assert trace.bin_seconds == 15.0

    def test_explicit_bin_overrides_header(self, tmp_path):
        trace = self._load(
            tmp_path, "# bin_seconds=15\n5\n7\n", bin_seconds=60.0
        )
        assert trace.bin_seconds == 60.0

    def test_bad_units_rejected(self, tmp_path):
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError, match="units"):
            self._load(tmp_path, "0,5\n30,7\n", units="bogus")

    def test_missing_column_rejected(self, tmp_path):
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError, match="column"):
            self._load(tmp_path, "0,5\n30,7\n", column=7)

    def test_empty_file_rejected(self, tmp_path):
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError, match="no data rows"):
            self._load(tmp_path, "# bin_seconds=30\n")

    def test_missing_file_rejected(self, tmp_path):
        from repro.common import ConfigurationError
        from repro.workload import ArrivalTrace

        with pytest.raises(ConfigurationError, match="cannot read"):
            ArrivalTrace.load_file(tmp_path / "nope.csv")

    def test_irregular_time_column_rejected(self, tmp_path):
        from repro.common import ConfigurationError

        # A dropped row (gap between 60 and 240) must not load as a
        # uniform trace with everything shifted earlier in time.
        with pytest.raises(ConfigurationError, match="regularly spaced"):
            self._load(tmp_path, "0,5\n60,7\n240,9\n300,11\n")

    def test_irregular_times_allowed_with_explicit_bin(self, tmp_path):
        trace = self._load(
            tmp_path, "0,5\n60,7\n240,9\n", bin_seconds=60.0
        )
        assert trace.bin_seconds == 60.0


class TestLoadFileLines:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0,5\n\n30,7\n   \n60,9\n")
        trace = ArrivalTrace.load_file(path)
        assert trace.counts.tolist() == [5.0, 7.0, 9.0]

    def test_a_non_numeric_value_column_is_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0,5\n30,seven\n")
        with pytest.raises(ConfigurationError, match="column 1 is not numeric"):
            ArrivalTrace.load_file(path)
