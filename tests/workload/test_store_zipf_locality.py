"""Tests for the virtual store and Zipf sampling."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.workload import VirtualStore, zipf_weights


class TestZipfWeights:
    def test_normalised(self):
        assert zipf_weights(100).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(50, exponent=1.0)
        assert np.all(np.diff(weights) < 0)

    def test_zipf_law_slope(self):
        """log weight vs log rank should have slope -exponent."""
        weights = zipf_weights(1000, exponent=1.0)
        ranks = np.arange(1, 1001)
        slope = np.polyfit(np.log(ranks), np.log(weights), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_zero_exponent_uniform(self):
        weights = zipf_weights(10, exponent=0.0)
        assert np.allclose(weights, 0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(10, exponent=-1.0)


class TestVirtualStore:
    def test_paper_defaults(self):
        store = VirtualStore(seed=0)
        assert store.n_objects == 10_000
        assert store.popular_objects == 1_000
        assert store.popular_mass == pytest.approx(0.9)

    def test_work_times_in_range(self):
        store = VirtualStore(seed=0)
        assert store.work_seconds.min() >= 0.010
        assert store.work_seconds.max() <= 0.025

    def test_popular_set_receives_ninety_percent(self):
        store = VirtualStore(seed=0)
        ids = store.sample_objects(200_000, np.random.default_rng(1))
        popular_fraction = np.mean(ids < store.popular_objects)
        assert popular_fraction == pytest.approx(0.9, abs=0.01)

    def test_sample_sizes(self):
        store = VirtualStore(seed=0)
        empty = store.sample_objects(0)
        assert empty.size == 0 and empty.dtype.kind == "i"
        with pytest.raises(ConfigurationError, match="size must be >= 0"):
            store.sample_objects(-1)

    def test_work_of_validates_range(self):
        store = VirtualStore(seed=0)
        with pytest.raises(ConfigurationError):
            store.work_of(np.array([10_000]))

    def test_rejects_popular_set_too_large(self):
        with pytest.raises(ConfigurationError):
            VirtualStore(n_objects=10, popular_objects=10)

    def test_rejects_bad_work_range(self):
        with pytest.raises(ConfigurationError):
            VirtualStore(work_range_ms=(25.0, 10.0))
