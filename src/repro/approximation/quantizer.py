"""Grid quantisation of continuous input domains.

The abstraction maps are trained over "a quantised approximation of the
domain" of the environment inputs; at query time, continuous observations
snap to the nearest grid point.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections.abc import Iterator, Sequence

import numpy as np

from repro.common.errors import ConfigurationError


def nearest_level(levels: "list[float]", value: float) -> int:
    """Index of the level nearest ``value``; a tie goes to the lower level.

    ``levels`` is one dimension of :attr:`GridQuantizer.levels` (strictly
    increasing plain floats). A value outside the grid clamps to its
    first or last level.
    """
    pos = bisect_left(levels, value)
    if pos == 0:
        return 0
    if pos >= len(levels):
        return len(levels) - 1
    before, after = levels[pos - 1], levels[pos]
    return pos - 1 if value - before <= after - value else pos


class GridQuantizer:
    """Per-dimension quantisation grid.

    Parameters
    ----------
    levels:
        One sorted sequence of grid values per input dimension, kept as
        plain Python floats.
    """

    def __init__(self, levels: Sequence[Sequence[float]]) -> None:
        if not levels:
            raise ConfigurationError("need at least one dimension")
        self.levels: list[list[float]] = []
        for i, values in enumerate(levels):
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ConfigurationError(f"dimension {i} must be non-empty 1-D")
            if not np.isfinite(arr).all() or np.any(np.diff(arr) <= 0):
                raise ConfigurationError(
                    f"dimension {i} must be finite and strictly increasing"
                )
            self.levels.append(arr.tolist())

    @property
    def dimensions(self) -> int:
        """Number of input dimensions."""
        return len(self.levels)

    @property
    def cell_count(self) -> int:
        """Total number of grid points."""
        count = 1
        for level in self.levels:
            count *= len(level)
        return count

    def grid_points(self) -> Iterator[tuple[float, ...]]:
        """Iterate every grid point (cartesian product, row-major)."""
        return itertools.product(*self.levels)

    def grid_indices(self) -> Iterator[tuple[int, ...]]:
        """Every grid point's per-dimension indices, row-major."""
        return itertools.product(*(range(len(level)) for level in self.levels))

    # ------------------------------------------------------------------
    # Serialisation (trained-map artifacts round-trip through JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free (floats round-trip)."""
        return {"levels": [list(level) for level in self.levels]}

    @classmethod
    def from_dict(cls, payload: dict) -> "GridQuantizer":
        """Rebuild a quantizer from :meth:`to_dict` output (revalidates)."""
        if "levels" not in payload:
            raise ConfigurationError("quantizer payload needs a 'levels' key")
        return cls(payload["levels"])
