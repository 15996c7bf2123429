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


def level_pairs(levels) -> np.ndarray:
    """The adjacent level pairs :func:`nearest_level` snaps by.

    ``levels`` holds one dimension's strictly increasing levels along its
    last axis (:attr:`GridQuantizer.levels` gives them as lists); a stack
    of rows may end in ``+inf`` padding. Returns ``(2, ..., L)``: each
    pair's lower level, then its upper level, for the ``L - 1`` adjacent
    pairs and a last pair ``(top, +inf)`` that no finite value passes.
    """
    lower = np.asarray(levels, dtype=float)
    closing = np.full(lower.shape[:-1] + (1,), np.inf)
    return np.stack([lower, np.concatenate([lower[..., 1:], closing], axis=-1)])


def nearest_level(pairs: np.ndarray, values) -> np.ndarray:
    """Index of the level nearest each value; a tie goes to the lower level.

    ``pairs`` is :func:`level_pairs` of the levels and broadcasts against
    ``values`` (one row of pairs per value, or one for all). A value
    outside the grid clamps to its first or last level.

    The index counts the pairs ``(lower, upper)`` with ``value - lower >
    upper - value``. Exactly the pairs below the value's bisect-left
    position and, past a tie, the pair around it pass, so this is the
    bisect rule ``pos - 1 if value - before <= after - value else pos``
    on whole arrays. Passing pairs come first and the closing pair never
    passes, so the count is the position of the first pair that fails.
    """
    lower, upper = pairs
    values = np.asarray(values, dtype=float)[..., None]
    return (values - lower > upper - values).argmin(axis=-1)


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
