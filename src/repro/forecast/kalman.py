"""A general linear-Gaussian Kalman filter.

State-space form (Harvey 2001, the reference the paper cites):

    x(k+1) = F x(k) + w(k),   w ~ N(0, Q)
    z(k)   = H x(k) + v(k),   v ~ N(0, R)

The filter supports the standard predict/update cycle. The workload
predictor (:mod:`repro.forecast.structural`) rolls its trend model's mean
forward itself to fill the limited-lookahead controllers' prediction
horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError


@dataclass
class StateSpaceModel:
    """Matrices of a time-invariant linear-Gaussian state-space model."""

    transition: np.ndarray  # F, (n, n)
    observation: np.ndarray  # H, (m, n)
    process_cov: np.ndarray  # Q, (n, n)
    observation_cov: np.ndarray  # R, (m, m)

    def __post_init__(self) -> None:
        self.transition = np.atleast_2d(np.asarray(self.transition, dtype=float))
        self.observation = np.atleast_2d(np.asarray(self.observation, dtype=float))
        self.process_cov = np.atleast_2d(np.asarray(self.process_cov, dtype=float))
        self.observation_cov = np.atleast_2d(
            np.asarray(self.observation_cov, dtype=float)
        )
        n = self.transition.shape[0]
        if self.transition.shape != (n, n):
            raise ConfigurationError("transition matrix must be square")
        if self.observation.shape[1] != n:
            raise ConfigurationError(
                "observation matrix column count must match state dimension"
            )
        if self.process_cov.shape != (n, n):
            raise ConfigurationError("process covariance must be (n, n)")
        m = self.observation.shape[0]
        if self.observation_cov.shape != (m, m):
            raise ConfigurationError("observation covariance must be (m, m)")

    @property
    def state_dim(self) -> int:
        """Dimension of the latent state vector."""
        return self.transition.shape[0]


class KalmanFilter:
    """Linear-Gaussian Kalman filter.

    The prior is zero-mean with a large diagonal covariance (a diffuse
    prior) over ``model``'s state.
    """

    def __init__(self, model: StateSpaceModel) -> None:
        self.model = model
        n = model.state_dim
        self.state = np.zeros(n)
        self.cov = np.eye(n) * 1e6

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def predict(self) -> tuple[np.ndarray, np.ndarray]:
        """Time update: propagate (state, cov) one step; returns the pair."""
        f = self.model.transition
        self.state = f @ self.state
        self.cov = f @ self.cov @ f.T + self.model.process_cov
        self.cov = _symmetrize(self.cov)
        return self.state.copy(), self.cov.copy()

    def update(self, observation: float | np.ndarray) -> None:
        """Measurement update with a new observation."""
        h = self.model.observation
        z = np.atleast_1d(np.asarray(observation, dtype=float))
        predicted = h @ self.state
        innovation = z - predicted
        s = h @ self.cov @ h.T + self.model.observation_cov
        gain = self.cov @ h.T @ np.linalg.inv(s)
        self.state = self.state + gain @ innovation
        identity = np.eye(self.model.state_dim)
        # Joseph form keeps the covariance symmetric positive semidefinite.
        factor = identity - gain @ h
        self.cov = (
            factor @ self.cov @ factor.T
            + gain @ self.model.observation_cov @ gain.T
        )
        self.cov = _symmetrize(self.cov)

    def step(self, observation: float | np.ndarray) -> None:
        """One predict-then-update cycle (the usual online loop body)."""
        self.predict()
        self.update(observation)


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Re-symmetrise a covariance to kill numerical drift."""
    return (matrix + matrix.T) / 2.0
