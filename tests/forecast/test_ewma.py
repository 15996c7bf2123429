"""Tests for the EWMA processing-time filter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.forecast import EwmaFilter


class TestEwmaFilter:
    def test_first_observation_seeds_estimate(self):
        filt = EwmaFilter(smoothing=0.1)
        filt.observe(0.02)
        assert filt.estimate == pytest.approx(0.02)

    def test_paper_update_rule(self):
        # c_hat(k+1) = pi * c(k) + (1 - pi) * c_hat(k), pi = 0.1
        filt = EwmaFilter(smoothing=0.1)
        filt.observe(0.010)
        filt.observe(0.020)
        assert filt.estimate == pytest.approx(0.1 * 0.020 + 0.9 * 0.010)

    def test_converges_to_constant(self):
        filt = EwmaFilter(smoothing=0.1)
        filt.observe(1.0)
        for _ in range(300):
            filt.observe(0.5)
        assert filt.estimate == pytest.approx(0.5, abs=1e-6)

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ConfigurationError):
            EwmaFilter(smoothing=1.5)

    def test_estimate_reads_zero_before_any_observation(self):
        assert EwmaFilter().estimate == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=50),
    )
    def test_estimate_stays_in_input_hull(self, smoothing, values):
        filt = EwmaFilter(smoothing=smoothing)
        for v in values:
            filt.observe(v)
        assert min(values) - 1e-9 <= filt.estimate <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=30))
    def test_zero_smoothing_keeps_first_value(self, values):
        filt = EwmaFilter(smoothing=0.0)
        for v in values:
            filt.observe(v)
        assert filt.estimate == pytest.approx(values[0])

    def test_full_smoothing_tracks_last_value(self):
        filt = EwmaFilter(smoothing=1.0)
        for v in [1.0, 7.0, 3.0]:
            filt.observe(v)
        assert filt.estimate == pytest.approx(3.0)
