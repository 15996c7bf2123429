"""Deterministic random-number plumbing.

Every stochastic component in the library takes either an integer seed or a
:class:`numpy.random.Generator`. :func:`spawn_rng` normalises both.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a numpy Generator from a seed, an existing generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
