"""Controller run-time accounting.

The paper reports control overhead as (a) system states explored per
sampling period and (b) controller execution time. Every controller
records both per invocation. The aggregates are accumulated online —
plain running sums rather than per-invocation lists — so month-long
runs hold constant memory no matter how many decisions fire.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ControllerStats:
    """Accumulates per-invocation exploration counts and wall times.

    ``states_explored`` and ``wall_seconds`` are running totals (the
    per-invocation detail is not retained); ``invocations`` counts the
    recorded calls. The derived means reproduce the paper's overhead
    table exactly — integer state counts sum exactly in float64 far
    beyond any realistic horizon.
    """

    invocations: int = 0
    states_explored: int = 0
    wall_seconds: float = 0.0

    def record(self, states: int, seconds: float) -> None:
        """Record one controller invocation."""
        self.invocations += 1
        self.states_explored += int(states)
        self.wall_seconds += float(seconds)

    @property
    def mean_states(self) -> float:
        """Average states explored per invocation (the paper's ~858)."""
        return self.states_explored / self.invocations if self.invocations else 0.0

    @property
    def total_seconds(self) -> float:
        """Total controller wall time."""
        return self.wall_seconds

    @property
    def mean_seconds(self) -> float:
        """Average wall time per invocation."""
        return self.wall_seconds / self.invocations if self.invocations else 0.0

    def merged_with(self, other: "ControllerStats") -> "ControllerStats":
        """New stats object combining two streams."""
        return ControllerStats(
            invocations=self.invocations + other.invocations,
            states_explored=self.states_explored + other.states_explored,
            wall_seconds=self.wall_seconds + other.wall_seconds,
        )
