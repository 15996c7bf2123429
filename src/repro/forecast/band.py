"""Rolling uncertainty band around forecasts (the paper's delta).

The ICDCS'06 controller samples the arrival-rate forecast at
``lambda_hat - delta``, ``lambda_hat`` and ``lambda_hat + delta``, where
delta is "the average error between the actual and forecasted values". This
module tracks that average over a sliding window.
"""

from __future__ import annotations

from collections import deque

from repro.common.validation import require_positive


class UncertaintyBand:
    """Sliding-window mean absolute one-step forecast error."""

    def __init__(self, window: int = 20) -> None:
        self.window = int(require_positive(window, "window"))
        self._errors: deque[float] = deque(maxlen=self.window)

    def observe(self, error: float) -> None:
        """Record a new one-step forecast error (actual - predicted)."""
        self._errors.append(abs(float(error)))

    @property
    def delta(self) -> float:
        """Current half-width of the uncertainty band (0 until data seen)."""
        if not self._errors:
            return 0.0
        return sum(self._errors) / len(self._errors)
