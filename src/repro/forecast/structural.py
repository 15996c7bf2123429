"""Harvey's local linear trend model and the workload predictor.

A *local linear trend* model is a random walk in level plus a stochastic
slope, observed in noise — equivalent to ARIMA(0,2,2). It is the standard
Kalman-filter implementation of a low-order ARIMA forecaster, which is
exactly what the paper uses to predict request arrival rates at each
level of the control hierarchy.

:class:`WorkloadPredictor` wraps a local-linear-trend filter with the
bookkeeping the controllers need: online updates with each new arrival
count, non-negative multi-step forecasts for the prediction horizon, and a
rolling uncertainty band delta(k) (mean absolute one-step error) used by the
L1 controller's chattering mitigation.
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import require_non_negative, require_positive
from repro.forecast.band import UncertaintyBand
from repro.forecast.kalman import KalmanFilter, StateSpaceModel


class LocalLinearTrendModel(StateSpaceModel):
    """Stochastic level + stochastic slope (Harvey's local linear trend).

    ::

        level(k+1) = level(k) + slope(k) + w_level
        slope(k+1) = slope(k) + w_slope
        z(k)       = level(k) + v
    """

    def __init__(
        self,
        level_var: float = 1.0,
        slope_var: float = 0.1,
        obs_var: float = 1.0,
    ) -> None:
        require_non_negative(level_var, "level_var")
        require_non_negative(slope_var, "slope_var")
        require_positive(obs_var, "obs_var")
        super().__init__(
            transition=np.array([[1.0, 1.0], [0.0, 1.0]]),
            observation=np.array([[1.0, 0.0]]),
            process_cov=np.diag([level_var, slope_var]),
            observation_cov=np.array([[obs_var]]),
        )


class WorkloadPredictor:
    """Online arrival-rate forecaster used by the L0/L1/L2 controllers.

    The local-linear-trend variances start at values that suit arrival
    *counts* in the hundreds-to-thousands per period; :meth:`tune_on` sets
    them from an initial trace segment, mirroring the paper's "parameters
    of the Kalman filter were first tuned using an initial portion of the
    workload". ``band_window`` is the window length of the rolling
    mean-absolute-error band delta.
    """

    def __init__(self, band_window: int = 20) -> None:
        self._filter = KalmanFilter(LocalLinearTrendModel(50.0, 5.0, 400.0))
        self._band = UncertaintyBand(window=band_window)
        self._primed = False

    @property
    def band(self) -> UncertaintyBand:
        """The rolling uncertainty band (the paper's delta)."""
        return self._band

    def tune_on(self, warmup: np.ndarray) -> None:
        """Estimate noise variances from an initial trace segment.

        Uses the method-of-moments fit for the equivalent ARIMA(0,2,2)
        process: variances are chosen so that the filter's steady-state
        smoothing matches the warm-up segment's second-difference variance,
        with the observation noise estimated from high-frequency residuals.
        """
        warmup = np.asarray(warmup, dtype=float)
        if warmup.size < 8:
            return
        second_diff = np.diff(warmup, n=2)
        total_var = float(np.var(second_diff)) or 1.0
        # Split second-difference variance between measurement noise
        # (dominant for noisy web traces) and the level/slope walks.
        obs_var = max(total_var / 6.0, 1e-6)
        level_var = max(total_var / 12.0, 1e-8)
        slope_var = max(total_var / 120.0, 1e-8)
        self._filter = KalmanFilter(
            LocalLinearTrendModel(level_var, slope_var, obs_var)
        )
        self._band = UncertaintyBand(window=self._band.window)
        self._primed = False
        for value in warmup:
            self.observe(float(value))

    def observe(self, value: float) -> None:
        """Consume the next observed arrival count."""
        if not self._primed:
            # Anchor the diffuse prior at the first observation so early
            # forecasts are sane.
            self._filter.state = np.array([value, 0.0])
            self._primed = True
        one_ahead = self.forecast(1)[0]
        self._band.observe(error=value - one_ahead)
        self._filter.step(value)

    def forecast(self, steps: int) -> np.ndarray:
        """Non-negative mean forecasts for 1..steps periods ahead.

        The trend model's mean rolls forward as the level plus the
        slope, once per step, in plain floats: on every finite state
        whose forecasts stay finite, the values of ``F @ state`` read
        through ``H`` and clipped at zero, bit for bit.
        """
        if not self._primed:
            return np.zeros(steps)
        level, slope = self._filter.state.tolist()
        forecasts = []
        for _ in range(steps):
            level += slope
            forecasts.append(0.0 if level <= 0.0 else level)
        return np.array(forecasts)
