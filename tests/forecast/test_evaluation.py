"""Tests for forecast-accuracy metrics."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.forecast import ForecastReport, mae, mape, rmse


class TestMetrics:
    def test_mae_known_value(self):
        assert mae([1, 2, 3], [2, 2, 5]) == pytest.approx((1 + 0 + 2) / 3)

    def test_rmse_known_value(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5))

    def test_mape_known_value(self):
        assert mape([10, 20], [11, 18]) == pytest.approx((0.1 + 0.1) / 2)

    def test_mape_skips_zero_actuals(self):
        assert mape([0.0, 10.0], [5.0, 11.0]) == pytest.approx(0.1)

    def test_mape_all_zero_raises(self):
        with pytest.raises(ConfigurationError):
            mape([0.0, 0.0], [1.0, 1.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            mae([1, 2], [1, 2, 3])

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            rmse([], [])

    def test_perfect_forecast(self):
        series = np.linspace(1, 10, 20)
        assert mae(series, series) == 0.0
        assert rmse(series, series) == 0.0
        assert mape(series, series) == 0.0


class TestForecastReport:
    def test_score_and_str(self):
        report = ForecastReport.score([10.0, 20.0], [12.0, 18.0])
        assert report.mae == pytest.approx(2.0)
        assert "MAE" in str(report) and "MAPE" in str(report)
