"""Online quantile estimation: the P² algorithm (Jain & Chlamtac 1985).

Response-time and decision-latency percentiles have to be available
*live* — a month-long trace cannot be buffered just to answer "what is
the P99 right now". The P² (piecewise-parabolic) estimator keeps five
markers per tracked quantile and updates them in O(1) per observation,
with no dependency on numpy: the telemetry core stays importable in
every worker process without dragging the scientific stack along.

Accuracy is the classic trade: a few permille of relative error on
smooth distributions for five floats of state. The test suite pins the
estimator against exact ``numpy.percentile`` on deterministic workloads
(see ``tests/obs/test_quantile.py``).
"""

from __future__ import annotations

import bisect

from repro.common.errors import ConfigurationError


class P2Quantile:
    """One tracked quantile, estimated online with five markers.

    ``observe()`` folds one sample in; ``value`` is the current
    estimate. Until five samples have arrived the estimate interpolates
    the sorted buffer directly (exact for those sizes).
    """

    __slots__ = ("q", "count", "_initial", "_heights", "_positions", "_desired")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"quantile must lie strictly between 0 and 1, got {q!r}"
            )
        self.q = float(q)
        self.count = 0
        self._initial: "list[float]" = []
        self._heights: "list[float] | None" = None
        self._positions: "list[float] | None" = None
        self._desired: "list[float] | None" = None

    def observe(self, x: float) -> None:
        """Fold one sample into the estimate (O(1) after warm-up)."""
        x = float(x)
        self.count += 1
        if self._heights is None:
            bisect.insort(self._initial, x)
            if len(self._initial) == 5:
                q = self.q
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * q,
                    1.0 + 4.0 * q,
                    3.0 + 2.0 * q,
                    5.0,
                ]
            return
        heights = self._heights
        positions = self._positions
        # Locate the cell and clamp the extreme markers.
        if x < heights[0]:
            heights[0] = x
            cell = 0
        elif x >= heights[4]:
            heights[4] = x
            cell = 3
        else:
            cell = 0
            while cell < 3 and x >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        q = self.q
        desired = self._desired
        desired[1] += q / 2.0
        desired[2] += q
        desired[3] += (1.0 + q) / 2.0
        desired[4] += 1.0
        # Nudge the three interior markers toward their desired
        # positions, parabolic when the result stays ordered, linear
        # otherwise.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step
        return

    def _parabolic(self, i: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        return heights[i] + step / (positions[i + 1] - positions[i - 1]) * (
            (positions[i] - positions[i - 1] + step)
            * (heights[i + 1] - heights[i])
            / (positions[i + 1] - positions[i])
            + (positions[i + 1] - positions[i] - step)
            * (heights[i] - heights[i - 1])
            / (positions[i] - positions[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        j = i + int(step)
        return heights[i] + step * (heights[j] - heights[i]) / (
            positions[j] - positions[i]
        )

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 before any sample)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return 0.0
        data = self._initial
        if len(data) == 1:
            return data[0]
        # Linear interpolation over the exact sorted buffer.
        rank = self.q * (len(data) - 1)
        low = int(rank)
        high = min(low + 1, len(data) - 1)
        return data[low] + (rank - low) * (data[high] - data[low])
