"""Tests for the Zipf-mix workload generator (drifting service demand)."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.workload import ZipfMixSpec, zipfmix_workload


class TestZipfMixSpec:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("l1_samples", 0),
            ("rate", 0.0),
            ("rotate_every", 0),
            ("work_sample_cap", 0),
            ("zipf_exponent", -0.5),
            # A 120 s L1 bin holds no whole number of 45 s sub-bins.
            ("sub_bin_seconds", 45.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            ZipfMixSpec(**{field: value})


class TestZipfMixWorkload:
    def test_shapes_align(self):
        spec = ZipfMixSpec(l1_samples=30, rate=50.0)
        trace, work = zipfmix_workload(spec, seed=0)
        assert len(trace) == 30 * 4
        assert work.shape == (30 * 4,)
        assert trace.bin_seconds == 30.0

    def test_arrivals_near_mean_rate(self):
        spec = ZipfMixSpec(l1_samples=100, rate=80.0)
        trace, _ = zipfmix_workload(spec, seed=1)
        mean_rate = trace.counts.mean() / spec.sub_bin_seconds
        assert mean_rate == pytest.approx(80.0, rel=0.05)

    def test_work_near_store_mean(self):
        spec = ZipfMixSpec(l1_samples=60, rate=80.0)
        _, work = zipfmix_workload(spec, seed=0)
        # Object work is U(10, 25) ms; popularity-weighted means stay in range.
        assert 0.010 <= work.mean() <= 0.025

    def test_rotation_shifts_mean_work(self):
        spec = ZipfMixSpec(l1_samples=120, rate=200.0, rotate_every=40)
        _, work = zipfmix_workload(spec, seed=0)
        bins_per_regime = 40 * spec.sub_bins_per_l1
        regime_means = [
            work[i : i + bins_per_regime].mean()
            for i in range(0, work.size, bins_per_regime)
        ]
        # Hot-set rotation must move the popularity-weighted demand by a
        # measurable step between regimes.
        assert np.ptp(regime_means) > 2e-4

    def test_seed_determinism(self):
        spec = ZipfMixSpec(l1_samples=20)
        t1, w1 = zipfmix_workload(spec, seed=5)
        t2, w2 = zipfmix_workload(spec, seed=5)
        np.testing.assert_array_equal(t1.counts, t2.counts)
        np.testing.assert_array_equal(w1, w2)
