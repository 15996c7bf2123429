"""P² online quantiles pinned against exact numpy percentiles."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.obs import P2Quantile


def p2_estimate(values, q):
    sketch = P2Quantile(q)
    for value in values:
        sketch.observe(value)
    return sketch.value


class TestAccuracy:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_uniform(self, q):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.0, size=5000)
        exact = float(np.percentile(values, 100 * q))
        assert p2_estimate(values, q) == pytest.approx(exact, abs=0.02)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_exponential(self, q):
        rng = np.random.default_rng(11)
        values = rng.exponential(scale=0.25, size=5000)
        exact = float(np.percentile(values, 100 * q))
        assert p2_estimate(values, q) == pytest.approx(exact, rel=0.08)

    def test_bimodal_p90_lands_in_dense_mode(self):
        rng = np.random.default_rng(13)
        values = np.concatenate(
            [
                rng.normal(0.05, 0.01, size=2500),
                rng.normal(0.50, 0.05, size=2500),
            ]
        )
        rng.shuffle(values)
        exact = float(np.percentile(values, 90))
        assert p2_estimate(values, 0.9) == pytest.approx(exact, abs=0.05)

    def test_bimodal_median_separates_modes(self):
        # The exact median of a balanced bimodal mix sits in the
        # near-empty valley between the modes; P² cannot pin a point
        # there precisely (no samples to anchor to), but its estimate
        # must land in the valley, cleanly separating the two modes.
        rng = np.random.default_rng(13)
        values = np.concatenate(
            [
                rng.normal(0.05, 0.01, size=2500),
                rng.normal(0.50, 0.05, size=2500),
            ]
        )
        rng.shuffle(values)
        estimate = p2_estimate(values, 0.5)
        low_mode_top = float(np.percentile(values, 45))
        high_mode_bottom = float(np.percentile(values, 55))
        assert low_mode_top < estimate < high_mode_bottom

    def test_small_samples_are_exact(self):
        # Below five samples the estimate interpolates the sorted
        # buffer, matching numpy's default linear interpolation.
        values = [0.3, 0.1, 0.7, 0.2]
        sketch = P2Quantile(0.5)
        for value in values:
            sketch.observe(value)
        assert sketch.value == pytest.approx(
            float(np.percentile(values, 50)), abs=1e-12
        )

    def test_empty_and_single(self):
        sketch = P2Quantile(0.9)
        assert sketch.value == 0.0
        sketch.observe(3.5)
        assert sketch.value == 3.5

    def test_bad_quantile_rejected(self):
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                P2Quantile(q)
