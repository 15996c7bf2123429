"""Exponentially-weighted moving-average filter.

Used by the paper to estimate per-request processing times:
``c_hat(k+1) = pi * c(k) + (1 - pi) * c_hat(k)`` with smoothing constant
``pi = 0.1``.
"""

from __future__ import annotations

from repro.common.validation import require_between


class EwmaFilter:
    """Scalar EWMA estimator.

    ``smoothing`` is the paper's pi, the weight given to the newest
    observation. The first observation seeds the filter directly (avoids
    a long transient from zero).
    """

    def __init__(self, smoothing: float = 0.1) -> None:
        self.smoothing = require_between(smoothing, 0.0, 1.0, "smoothing")
        self._estimate: "float | None" = None

    def observe(self, value: float) -> float:
        """Fold in a new observation and return the updated estimate."""
        value = float(value)
        if self._estimate is None:
            self._estimate = value
        else:
            self._estimate = (
                self.smoothing * value + (1.0 - self.smoothing) * self._estimate
            )
        return self._estimate

    @property
    def estimate(self) -> float:
        """Current estimate (0.0 if nothing observed yet)."""
        return 0.0 if self._estimate is None else self._estimate
