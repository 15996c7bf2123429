"""Tests for DVFS processor specs and profiles."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.cluster import ProcessorSpec, processor_profile


class TestProcessorSpec:
    def test_scaling_factors_top_is_one(self):
        spec = processor_profile("c4")
        factors = spec.scaling_factors
        assert factors[-1] == pytest.approx(1.0)
        assert np.all(np.diff(factors) > 0)

    def test_frequency_range_ends(self):
        spec = ProcessorSpec("x", (0.6, 1.0, 1.4))
        assert (spec.min_frequency, spec.max_frequency) == (0.6, 1.4)
        assert spec.setting_count == 3

    def test_scaling_factor_by_index(self):
        spec = ProcessorSpec("x", (1.0, 2.0))
        assert spec.scaling_factor(0) == pytest.approx(0.5)
        assert spec.scaling_factor(1) == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec("x", ())

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec("x", (2.0, 1.0))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec("x", (1.0, 1.0))

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec("x", (0.0, 1.0))


class TestProfiles:
    def test_paper_module_profiles_exist(self):
        for name in ("c1", "c2", "c3", "c4"):
            assert processor_profile(name).setting_count >= 5

    def test_amd_k6_has_eight_settings(self):
        # The paper: "AMD-K-2 ... offer only a limited number of discrete
        # frequency settings, eight"
        assert processor_profile("amd_k6_2plus").setting_count == 8

    def test_pentium_m_has_ten_settings(self):
        assert processor_profile("pentium_m").setting_count == 10

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError, match="unknown processor profile"):
            processor_profile("does-not-exist")

    def test_profiles_heterogeneous(self):
        maxes = {processor_profile(n).max_frequency for n in ("c1", "c2", "c3", "c4")}
        assert len(maxes) == 4
