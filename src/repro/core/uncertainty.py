"""Uncertainty-band sampling — the paper's chattering mitigation.

Under noisy workloads the arrival forecasts carry an uncertainty band
``lambda_hat +/- delta``. Rather than optimising against the point
forecast (which makes the L1 controller chase noise, switching machines
on and off excessively), the expected cost of each candidate next state is
computed by averaging three samples: ``lambda_hat - delta``,
``lambda_hat`` and ``lambda_hat + delta``.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError


def three_point_band(mean: float, delta: float) -> "tuple[float, float, float]":
    """The three sampled values, clipped below at zero.

    With ``delta == 0`` all three collapse onto the mean (the band
    degenerates gracefully before any forecast errors are observed).
    Plain floats in and out, as ``np.maximum(x, 0.0)`` clips: a sample
    at or below zero reads ``0.0`` and NaN stays NaN.
    """
    if delta < 0:
        raise ConfigurationError("delta must be >= 0")
    low, high = mean - delta, mean + delta
    return (
        0.0 if low <= 0.0 else low,
        0.0 if mean <= 0.0 else mean,
        0.0 if high <= 0.0 else high,
    )
