"""The virtual object store of §4.3.

10,000 objects whose per-object processing times are drawn uniformly from
(10, 25) ms. The store is split into a "popular" set (first 1000 objects)
receiving 90 % of all requests and a "rare" set receiving the remaining
10 %; within each set, popularity follows Zipf's law.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import spawn_rng
from repro.common.validation import require_between, require_positive
from repro.workload.zipf import zipf_weights


class VirtualStore:
    """Object catalogue with service times and a two-tier Zipf popularity."""

    def __init__(
        self,
        n_objects: int = 10_000,
        popular_objects: int = 1_000,
        popular_mass: float = 0.9,
        work_range_ms: tuple[float, float] = (10.0, 25.0),
        zipf_exponent: float = 1.0,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        self.n_objects = int(require_positive(n_objects, "n_objects"))
        self.popular_objects = int(require_positive(popular_objects, "popular_objects"))
        if self.popular_objects >= self.n_objects:
            raise ConfigurationError("popular set must be smaller than the store")
        self.popular_mass = require_between(popular_mass, 0.0, 1.0, "popular_mass")
        low, high = work_range_ms
        if not 0 < low < high:
            raise ConfigurationError("work_range_ms must satisfy 0 < low < high")
        rng = spawn_rng(seed)
        #: Per-object full-speed processing time, seconds.
        self.work_seconds = rng.uniform(low / 1e3, high / 1e3, self.n_objects)
        popular = zipf_weights(self.popular_objects, zipf_exponent) * popular_mass
        rare_count = self.n_objects - self.popular_objects
        rare = zipf_weights(rare_count, zipf_exponent) * (1.0 - popular_mass)
        self._cumulative = np.cumsum(np.concatenate([popular, rare]))

    def sample_objects(
        self, size: int, rng: "np.random.Generator | None" = None
    ) -> np.ndarray:
        """Draw object ids from the stationary popularity distribution."""
        if size < 0:
            raise ConfigurationError("size must be >= 0")
        if size == 0:
            return np.zeros(0, dtype=int)
        rng = spawn_rng(rng)
        uniforms = rng.random(size)
        return np.searchsorted(self._cumulative, uniforms, side="right").clip(
            0, self.n_objects - 1
        )

    def work_of(self, object_ids: np.ndarray) -> np.ndarray:
        """Full-speed processing times of the given objects."""
        ids = np.asarray(object_ids, dtype=int)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_objects):
            raise ConfigurationError("object id out of range")
        return self.work_seconds[ids]
