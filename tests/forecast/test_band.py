"""Tests for the rolling uncertainty band (delta)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.forecast import UncertaintyBand


class TestUncertaintyBand:
    def test_empty_band_is_zero(self):
        assert UncertaintyBand().delta == 0.0

    def test_single_error(self):
        band = UncertaintyBand()
        band.observe(-3.0)
        assert band.delta == pytest.approx(3.0)

    def test_mean_absolute_error(self):
        band = UncertaintyBand(window=10)
        for e in [1.0, -2.0, 3.0]:
            band.observe(e)
        assert band.delta == pytest.approx(2.0)

    def test_window_evicts_old_errors(self):
        band = UncertaintyBand(window=2)
        band.observe(100.0)
        band.observe(1.0)
        band.observe(1.0)
        assert band.delta == pytest.approx(1.0)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ConfigurationError):
            UncertaintyBand(window=0)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
    def test_delta_non_negative_and_bounded(self, errors):
        band = UncertaintyBand(window=16)
        for e in errors:
            band.observe(e)
        assert 0.0 <= band.delta <= max(abs(e) for e in errors) + 1e-9
