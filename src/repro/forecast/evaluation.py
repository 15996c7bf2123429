"""Forecast-accuracy metrics and a small report container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise ConfigurationError(
            f"actual and predicted must have equal shape, got {a.shape} vs {p.shape}"
        )
    if a.size == 0:
        raise ConfigurationError("cannot score empty series")
    return a, p


def mae(actual, predicted) -> float:
    """Mean absolute error."""
    a, p = _paired(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    a, p = _paired(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, ignoring actuals within 1e-9 of zero."""
    a, p = _paired(actual, predicted)
    mask = np.abs(a) > 1e-9
    if not np.any(mask):
        raise ConfigurationError("all actual values are ~0; MAPE undefined")
    return float(np.mean(np.abs((a[mask] - p[mask]) / a[mask])))


@dataclass(frozen=True)
class ForecastReport:
    """Bundle of accuracy metrics for one forecaster on one trace."""

    mae: float
    rmse: float
    mape: float

    @classmethod
    def score(cls, actual, predicted) -> "ForecastReport":
        """Compute all metrics for a pair of aligned series."""
        return cls(
            mae=mae(actual, predicted),
            rmse=rmse(actual, predicted),
            mape=mape(actual, predicted),
        )

    def __str__(self) -> str:
        return (
            f"MAE={self.mae:.3f} RMSE={self.rmse:.3f} "
            f"MAPE={100 * self.mape:.2f}%"
        )
