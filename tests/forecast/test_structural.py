"""Tests for structural models and the WorkloadPredictor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.forecast import LocalLinearTrendModel, WorkloadPredictor

from helpers import kalman_forecast


class TestLocalLinearTrendModel:
    def test_shape(self):
        model = LocalLinearTrendModel()
        assert model.state_dim == 2

    def test_rejects_negative_variance(self):
        with pytest.raises(ConfigurationError):
            LocalLinearTrendModel(level_var=-1.0)

    def test_rejects_zero_obs_var(self):
        with pytest.raises(ConfigurationError):
            LocalLinearTrendModel(obs_var=0.0)


class TestWorkloadPredictor:
    def test_unprimed_forecast_is_zero(self):
        predictor = WorkloadPredictor()
        assert np.array_equal(predictor.forecast(3), np.zeros(3))

    def test_first_observation_anchors_forecast(self):
        predictor = WorkloadPredictor()
        predictor.observe(500.0)
        forecast = predictor.forecast(1)
        assert forecast[0] == pytest.approx(500.0, rel=0.2)

    def test_tracks_linear_trend(self):
        predictor = WorkloadPredictor()
        series = 100.0 + 5.0 * np.arange(200)
        for v in series:
            predictor.observe(v)
        forecast = predictor.forecast(4)
        expected = series[-1] + 5.0 * np.arange(1, 5)
        assert np.allclose(forecast, expected, rtol=0.05)

    def test_forecasts_never_negative(self):
        predictor = WorkloadPredictor()
        for v in [50.0, 10.0, 1.0, 0.0, 0.0, 0.0]:
            predictor.observe(v)
        assert np.all(predictor.forecast(5) >= 0.0)

    def test_band_widens_with_noise(self):
        rng = np.random.default_rng(1)
        quiet = WorkloadPredictor()
        noisy = WorkloadPredictor()
        for k in range(150):
            quiet.observe(1000.0)
            noisy.observe(1000.0 + rng.normal(0, 200.0))
        assert noisy.band.delta > quiet.band.delta

    def test_tune_on_short_segment_is_noop(self):
        predictor = WorkloadPredictor()
        predictor.tune_on(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(predictor.forecast(2), np.zeros(2))
        assert predictor.band.delta == 0.0

    def test_tune_on_consumes_warmup(self):
        predictor = WorkloadPredictor()
        warmup = 100.0 + 10.0 * np.sin(np.arange(50) / 5.0)
        predictor.tune_on(warmup)
        assert predictor.band.delta > 0
        assert predictor.forecast(1)[0] > 0

    def test_tuned_predictor_beats_untuned_on_noisy_trace(self):
        rng = np.random.default_rng(3)
        t = np.arange(400)
        trace = 2000 + 800 * np.sin(2 * np.pi * t / 200) + rng.normal(0, 150, t.size)
        warmup, rest = trace[:100], trace[100:]

        tuned = WorkloadPredictor()
        tuned.tune_on(warmup)
        errors_tuned = []
        for v in rest:
            errors_tuned.append(abs(tuned.forecast(1)[0] - v))
            tuned.observe(v)
        # The tuned filter should track within a couple noise std-devs.
        assert np.mean(errors_tuned) < 450.0


#: Finite state entries, negative ones included, small enough that six
#: steps of level + slope stay finite.
_STATE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


def _oracle(predictor, steps):
    """The forecast by the filter's matrix loop, clipped at zero."""
    return np.clip(kalman_forecast(predictor._filter, steps), 0.0, None)


class TestForecastOracle:
    """``forecast``'s plain-float roll against the ``F @ state`` loop."""

    @settings(max_examples=300, deadline=None)
    @given(
        state=st.one_of(
            st.tuples(_STATE, _STATE),
            # Exact cancellations and signed zeros.
            _STATE.map(lambda level: (level, -level)),
            _STATE.map(lambda slope: (-2.0 * slope, slope)),
            st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0])),
        ),
        steps=st.integers(0, 6),
    )
    def test_matches_the_matrix_loop_bit_for_bit(self, state, steps):
        predictor = WorkloadPredictor()
        predictor.observe(1.0)
        predictor._filter.state = np.array(state)
        got = predictor.forecast(steps)
        want = _oracle(predictor, steps)
        assert got.dtype == want.dtype and got.shape == want.shape == (steps,)
        assert got.tobytes() == want.tobytes()

    def test_matches_along_a_tuned_trace(self):
        rng = np.random.default_rng(5)
        trace = np.maximum(600 + 400 * np.sin(np.arange(300) / 20) + rng.normal(0, 120, 300), 0)
        predictor = WorkloadPredictor()
        predictor.tune_on(trace[:40])
        for value in trace[40:]:
            for steps in (1, 2, 3):
                assert predictor.forecast(steps).tobytes() == _oracle(predictor, steps).tobytes()
            predictor.observe(float(value))
