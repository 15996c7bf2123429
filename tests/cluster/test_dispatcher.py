"""Tests for the weighted dispatcher."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.cluster import WeightedDispatcher


class TestFluidSplit:
    def test_exact_split(self):
        out = WeightedDispatcher.split_fluid(100.0, np.array([0.25, 0.75]))
        assert np.allclose(out, [25.0, 75.0])

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigurationError):
            WeightedDispatcher.split_fluid(100.0, np.array([0.5, 0.6]))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_nan_gamma(self, position):
        gamma = np.array([0.5, 0.5, 0.0])
        gamma[position] = np.nan
        with pytest.raises(
            ConfigurationError, match=rf"gamma\[{position}\] must be finite"
        ):
            WeightedDispatcher.split_fluid(100.0, gamma)

    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError):
            WeightedDispatcher.split_fluid(-1.0, np.array([1.0]))

    @given(
        st.floats(min_value=0, max_value=1e6),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
    )
    def test_split_conserves_flow(self, total, weights):
        gamma = np.asarray(weights)
        gamma = gamma / gamma.sum()
        out = WeightedDispatcher.split_fluid(total, gamma)
        assert float(out.sum()) == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert np.all(out >= 0)


class TestRequestSplit:
    def test_all_requests_assigned_once(self):
        dispatcher = WeightedDispatcher(seed=0)
        times = np.sort(np.random.default_rng(1).uniform(0, 100, 500))
        works = np.ones(500)
        parts = dispatcher.split_requests(times, works, np.array([0.2, 0.3, 0.5]))
        assert sum(p[0].size for p in parts) == 500

    def test_split_preserves_order_within_target(self):
        dispatcher = WeightedDispatcher(seed=0)
        times = np.arange(100.0)
        parts = dispatcher.split_requests(times, np.ones(100), np.array([0.5, 0.5]))
        for sub_times, _ in parts:
            assert np.all(np.diff(sub_times) >= 0)

    def test_proportions_statistically_respected(self):
        dispatcher = WeightedDispatcher(seed=2)
        n = 20000
        times = np.arange(float(n))
        gamma = np.array([0.1, 0.9])
        parts = dispatcher.split_requests(times, np.ones(n), gamma)
        assert parts[0][0].size / n == pytest.approx(0.1, abs=0.02)

    def test_empty_stream(self):
        dispatcher = WeightedDispatcher(seed=0)
        parts = dispatcher.split_requests(
            np.zeros(0), np.zeros(0), np.array([0.5, 0.5])
        )
        assert all(p[0].size == 0 for p in parts)

    def test_zero_weight_target_gets_nothing(self):
        dispatcher = WeightedDispatcher(seed=3)
        times = np.arange(1000.0)
        parts = dispatcher.split_requests(times, np.ones(1000), np.array([0.0, 1.0]))
        assert parts[0][0].size == 0

    def test_deterministic_under_seed(self):
        times = np.arange(100.0)
        a = WeightedDispatcher(seed=7).split_requests(
            times, np.ones(100), np.array([0.4, 0.6])
        )
        b = WeightedDispatcher(seed=7).split_requests(
            times, np.ones(100), np.array([0.4, 0.6])
        )
        assert np.array_equal(a[0][0], b[0][0])

    def test_misaligned_inputs_rejected(self):
        dispatcher = WeightedDispatcher(seed=0)
        with pytest.raises(ValueError):
            dispatcher.split_requests(np.zeros(3), np.zeros(2), np.array([1.0]))
