"""Forecasting substrate: Kalman filtering of ARIMA-class models and EWMA.

The paper predicts request arrivals with "an ARIMA model, implemented by a
Kalman filter" at every level of the control hierarchy, and request
processing times with an exponentially-weighted moving average (EWMA,
smoothing constant pi = 0.1). This package provides:

* :class:`~repro.forecast.kalman.KalmanFilter` — general linear-Gaussian
  filter.
* :mod:`~repro.forecast.structural` — Harvey's local linear trend model
  and the :class:`~repro.forecast.structural.WorkloadPredictor` wrapper
  used by the controllers (the local linear trend is the state-space
  form of ARIMA(0,2,2), the paper's "ARIMA model implemented by a Kalman
  filter").
* :class:`~repro.forecast.ewma.EwmaFilter` — processing-time estimator.
* :class:`~repro.forecast.band.UncertaintyBand` — the rolling
  mean-absolute-error band (the paper's delta) used for chattering
  mitigation.
"""

from repro.forecast.band import UncertaintyBand
from repro.forecast.evaluation import ForecastReport, mae, mape, rmse
from repro.forecast.ewma import EwmaFilter
from repro.forecast.kalman import KalmanFilter, StateSpaceModel
from repro.forecast.structural import LocalLinearTrendModel, WorkloadPredictor

__all__ = [
    "EwmaFilter",
    "ForecastReport",
    "KalmanFilter",
    "LocalLinearTrendModel",
    "StateSpaceModel",
    "UncertaintyBand",
    "WorkloadPredictor",
    "mae",
    "mape",
    "rmse",
]
