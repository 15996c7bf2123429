"""Tests for the linear-Gaussian Kalman filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.forecast import KalmanFilter, StateSpaceModel

from helpers import kalman_forecast


def _level_model(level_var=1.0, obs_var=1.0):
    """The one-state local level model: a random walk observed in noise."""
    return StateSpaceModel(
        transition=np.array([[1.0]]),
        observation=np.array([[1.0]]),
        process_cov=np.array([[level_var]]),
        observation_cov=np.array([[obs_var]]),
    )


def _level_filter(level_var=0.5, obs_var=2.0):
    return KalmanFilter(_level_model(level_var=level_var, obs_var=obs_var))


class TestStateSpaceModel:
    def test_rejects_non_square_transition(self):
        with pytest.raises(ConfigurationError):
            StateSpaceModel(
                transition=np.ones((2, 3)),
                observation=np.ones((1, 2)),
                process_cov=np.eye(2),
                observation_cov=np.eye(1),
            )

    def test_rejects_mismatched_observation(self):
        with pytest.raises(ConfigurationError):
            StateSpaceModel(
                transition=np.eye(2),
                observation=np.ones((1, 3)),
                process_cov=np.eye(2),
                observation_cov=np.eye(1),
            )

    def test_rejects_mis_shaped_covariances(self):
        with pytest.raises(ConfigurationError, match="process covariance"):
            StateSpaceModel(
                transition=np.eye(2),
                observation=np.ones((1, 2)),
                process_cov=np.eye(3),
                observation_cov=np.eye(1),
            )
        with pytest.raises(ConfigurationError, match="observation covariance"):
            StateSpaceModel(
                transition=np.eye(2),
                observation=np.ones((1, 2)),
                process_cov=np.eye(2),
                observation_cov=np.eye(2),
            )

    def test_dims(self):
        model = _level_model()
        assert model.state_dim == 1


class TestFiltering:
    def test_converges_to_constant_signal(self):
        kf = _level_filter()
        for _ in range(200):
            kf.step(10.0)
        assert kf.state[0] == pytest.approx(10.0, abs=0.05)

    def test_tracks_ramp_with_lag(self):
        kf = _level_filter(level_var=5.0, obs_var=1.0)
        values = np.arange(100, dtype=float)
        for v in values:
            kf.step(v)
        # A local-level filter lags a ramp but must stay within a few units.
        assert abs(kf.state[0] - values[-1]) < 5.0

    def test_innovation_shrinks_on_constant_signal(self):
        kf = _level_filter()
        innovations = []
        for _ in range(50):
            innovations.append(abs(4.0 - kalman_forecast(kf, 1)[0]))
            kf.step(4.0)
        assert innovations[-1] <= innovations[1]

    def test_filtering_reduces_noise_variance(self):
        rng = np.random.default_rng(0)
        truth = 50.0
        noisy = truth + rng.normal(0, 4.0, size=400)
        kf = _level_filter(level_var=0.01, obs_var=16.0)
        estimates = []
        for z in noisy:
            estimates.append(kalman_forecast(kf, 1)[0])
            kf.step(z)
        resid_filter = np.mean((np.array(estimates[50:]) - truth) ** 2)
        resid_raw = np.mean((noisy[50:] - truth) ** 2)
        assert resid_filter < resid_raw / 4

    def test_prior_is_zero_mean_and_diffuse(self):
        kf = _level_filter()
        assert kf.state.tolist() == [0.0]
        assert kf.cov.tolist() == [[1e6]]
        # A diffuse prior lets the first observation all but set the state.
        kf.step(40.0)
        assert kf.state[0] == pytest.approx(40.0, rel=1e-5)


class TestForecasting:
    """The matrix-loop oracle (``helpers.kalman_forecast``) on a level model."""

    def test_zero_steps(self):
        assert kalman_forecast(_level_filter(), 0).size == 0

    def test_constant_forecast_for_level_model(self):
        kf = _level_filter()
        for _ in range(100):
            kf.step(7.0)
        forecast = kalman_forecast(kf, 5)
        assert np.allclose(forecast, 7.0, atol=0.1)

    def test_forecast_has_no_side_effects(self):
        kf = _level_filter()
        kf.step(3.0)
        state_before = kf.state.copy()
        kalman_forecast(kf, 10)
        assert np.array_equal(kf.state, state_before)


class TestNumericalProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_covariance_stays_psd(self, observations):
        kf = _level_filter()
        for z in observations:
            kf.step(z)
            eigenvalues = np.linalg.eigvalsh(kf.cov)
            assert np.all(eigenvalues >= -1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_constant_input_converges_anywhere(self, value):
        kf = _level_filter()
        for _ in range(150):
            kf.step(value)
        assert kf.state[0] == pytest.approx(value, abs=max(1.0, abs(value) * 0.02))
