"""Response-time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import require_positive


@dataclass
class ResponseStats:
    """Accumulates response-time samples and violation counts.

    ``target`` is the paper's r*: a sample above it counts as a QoS
    violation.
    """

    target: float
    _samples: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        require_positive(self.target, "target")

    def record(self, response_time: float) -> None:
        """Add one response-time sample (seconds)."""
        if response_time < 0:
            raise ConfigurationError("response time must be >= 0")
        self._samples.append(float(response_time))

    def record_many(self, response_times) -> None:
        """Add a batch of samples."""
        for value in np.asarray(response_times, dtype=float).ravel():
            self.record(float(value))

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Mean response time (0.0 when empty)."""
        return float(np.mean(self._samples)) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile of the samples (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, q))

    @property
    def violation_fraction(self) -> float:
        """Fraction of samples exceeding the target r*."""
        if not self._samples:
            return 0.0
        samples = np.asarray(self._samples)
        return float(np.mean(samples > self.target))
