"""Grid quantisation of continuous input domains.

The abstraction maps are trained over "a quantised approximation of the
domain" of the environment inputs; at query time, continuous observations
snap to the nearest grid point.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

import numpy as np

from repro.common.errors import ConfigurationError


class GridQuantizer:
    """Per-dimension quantisation grid.

    Parameters
    ----------
    levels:
        One sorted array of grid values per input dimension.
    """

    def __init__(self, levels: Sequence[Sequence[float]]) -> None:
        if not levels:
            raise ConfigurationError("need at least one dimension")
        self.levels: list[np.ndarray] = []
        for i, values in enumerate(levels):
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ConfigurationError(f"dimension {i} must be non-empty 1-D")
            if np.any(np.diff(arr) <= 0):
                raise ConfigurationError(f"dimension {i} must be strictly increasing")
            self.levels.append(arr)

    @property
    def dimensions(self) -> int:
        """Number of input dimensions."""
        return len(self.levels)

    @property
    def cell_count(self) -> int:
        """Total number of grid points."""
        count = 1
        for arr in self.levels:
            count *= arr.size
        return count

    def snap_indices(self, point: Sequence[float]) -> tuple[int, ...]:
        """Indices of the nearest grid value in each dimension."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimensions,):
            raise ConfigurationError(
                f"point must have {self.dimensions} dimensions, got {point.shape}"
            )
        indices = []
        for value, grid in zip(point, self.levels):
            pos = int(np.searchsorted(grid, value))
            if pos == 0:
                indices.append(0)
            elif pos >= grid.size:
                indices.append(grid.size - 1)
            else:
                before, after = grid[pos - 1], grid[pos]
                indices.append(pos - 1 if value - before <= after - value else pos)
        return tuple(indices)

    def snap(self, point: Sequence[float]) -> tuple[float, ...]:
        """Nearest grid point to ``point``."""
        indices = self.snap_indices(point)
        return tuple(float(self.levels[d][i]) for d, i in enumerate(indices))

    def grid_points(self) -> Iterator[tuple[float, ...]]:
        """Iterate every grid point (cartesian product, row-major)."""
        for combo in itertools.product(*(arr.tolist() for arr in self.levels)):
            yield tuple(float(v) for v in combo)

    # ------------------------------------------------------------------
    # Serialisation (trained-map artifacts round-trip through JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free (floats round-trip)."""
        return {"levels": [arr.tolist() for arr in self.levels]}

    @classmethod
    def from_dict(cls, payload: dict) -> "GridQuantizer":
        """Rebuild a quantizer from :meth:`to_dict` output (revalidates)."""
        if "levels" not in payload:
            raise ConfigurationError("quantizer payload needs a 'levels' key")
        return cls(payload["levels"])
