"""Uncertainty-band sampling — the paper's chattering mitigation.

Under noisy workloads the arrival forecasts carry an uncertainty band
``lambda_hat +/- delta``. Rather than optimising against the point
forecast (which makes the L1 controller chase noise, switching machines
on and off excessively), the expected cost of each candidate next state is
computed by averaging three samples: ``lambda_hat - delta``,
``lambda_hat`` and ``lambda_hat + delta``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError


def three_point_band(mean, delta) -> np.ndarray:
    """The three sampled values, clipped below at zero.

    With ``delta == 0`` all three collapse onto the mean (the band
    degenerates gracefully before any forecast errors are observed).
    ``mean`` and ``delta`` may be arrays that broadcast together; the
    samples then stack along a new first axis.
    """
    if (np.asarray(delta) < 0).any():
        raise ConfigurationError("delta must be >= 0")
    return np.maximum(np.array([mean - delta, mean, mean + delta]), 0.0)

