"""Uncertainty-band sampling — the paper's chattering mitigation.

Under noisy workloads the arrival forecasts carry an uncertainty band
``lambda_hat +/- delta``. Rather than optimising against the point
forecast (which makes the L1 controller chase noise, switching machines
on and off excessively), the expected cost of each candidate next state is
computed by averaging three samples: ``lambda_hat - delta``,
``lambda_hat`` and ``lambda_hat + delta``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.common.errors import ConfigurationError


def three_point_band(mean, delta, floor: float = 0.0) -> np.ndarray:
    """The three sampled values, clipped below at ``floor``.

    With ``delta == 0`` all three collapse onto the mean (the band
    degenerates gracefully before any forecast errors are observed).
    ``mean`` and ``delta`` may be arrays that broadcast together; the
    samples then stack along a new first axis.
    """
    if (np.asarray(delta) < 0).any():
        raise ConfigurationError("delta must be >= 0")
    return np.maximum(np.array([mean - delta, mean, mean + delta]), floor)


def expected_over_band(
    cost_at: Callable[[float], float],
    mean: float,
    delta: float,
    weights: Sequence[float] | None = None,
    floor: float = 0.0,
) -> float:
    """Expected cost over the three-point band.

    ``weights`` defaults to the paper's plain average; pass e.g.
    ``(0.25, 0.5, 0.25)`` for a triangular weighting.
    """
    samples = three_point_band(mean, delta, floor)
    if weights is None:
        w = np.full(3, 1.0 / 3.0)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0):
            raise ConfigurationError("weights must be three non-negative values")
        total = w.sum()
        if total <= 0:
            raise ConfigurationError("weights must not all be zero")
        w = w / total
    return float(sum(wi * float(cost_at(s)) for wi, s in zip(w, samples)))
