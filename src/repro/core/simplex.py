"""Quantised probability simplexes — the gamma decision spaces.

Load-distribution factors are quantised: gamma_ij in steps of 0.05 within
a module, gamma_i in steps of 0.1 across modules, always summing to one.
This module enumerates and perturbs such vectors exactly (in integer
quanta, avoiding floating-point drift).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import require_positive


def _quanta(step: float) -> int:
    """Number of quanta in 1.0 for a step like 0.05; validates divisibility."""
    require_positive(step, "step")
    k = round(1.0 / step)
    if abs(k * step - 1.0) > 1e-9:
        raise ConfigurationError(f"step {step} must evenly divide 1.0")
    return k


def simplex_levels(step: float) -> np.ndarray:
    """The k + 1 values one coordinate of a quantised vector can take.

    ``levels[n] = n * step`` for n = 0..k, computed as the integer quanta
    times ``step`` exactly as :func:`enumerate_simplex`,
    :func:`quantize_to_simplex` and :func:`simplex_neighbors` compute
    their entries, so a vector with quanta ``q`` equals ``levels[q]``
    bit for bit.
    """
    return np.arange(_quanta(step) + 1).astype(float) * step


def enumerate_simplex(dimensions: int, step: float) -> Iterator[np.ndarray]:
    """Yield every quantised vector on the simplex (sums to exactly 1).

    The count is C(k + d - 1, d - 1) for k = 1/step quanta — e.g. 286 for
    four modules at step 0.1, matching the L2 exhaustive search space.
    """
    if dimensions < 1:
        raise ConfigurationError("dimensions must be >= 1")
    k = _quanta(step)
    for cuts in itertools.combinations(range(k + dimensions - 1), dimensions - 1):
        parts = []
        previous = -1
        for cut in cuts:
            parts.append(cut - previous - 1)
            previous = cut
        parts.append(k + dimensions - 2 - previous)
        yield np.asarray(parts, dtype=float) * step


def quantize_to_simplex(weights: np.ndarray, step: float) -> np.ndarray:
    """Project non-negative weights onto the quantised simplex.

    Normalises, floors to quanta, then distributes the remaining quanta by
    largest remainder — the result sums to exactly one and is entry-wise
    within one quantum of the normalised input.
    """
    k = _quanta(step)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ConfigurationError("weights must be a non-empty vector")
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        # Degenerate input: spread quanta as evenly as possible.
        base = np.full(w.size, k // w.size, dtype=int)
        base[: k - base.sum()] += 1
        return base.astype(float) * step
    scaled = w / total * k
    floors = np.floor(scaled).astype(int)
    remainder = k - int(floors.sum())
    fractional = scaled - floors
    order = np.argsort(-fractional, kind="stable")
    floors[order[:remainder]] += 1
    return floors.astype(float) * step


def simplex_neighbors(
    gamma: np.ndarray, step: float, moves: int = 1
) -> Iterator[np.ndarray]:
    """Yield vectors reachable by moving up to ``moves`` quanta.

    Each neighbour moves one quantum from a positive entry to another
    entry; with ``moves = 2`` two-quantum transfers between the same pair
    are also yielded. This is the bounded neighbourhood the L1 search
    walks.
    """
    k = _quanta(step)
    base = np.rint(np.asarray(gamma, dtype=float) * k).astype(int)
    if base.sum() != k:
        raise ConfigurationError("gamma is not on the quantised simplex")
    n = base.size
    for source in range(n):
        for target in range(n):
            if source == target:
                continue
            for amount in range(1, moves + 1):
                if base[source] < amount:
                    break
                neighbor = base.copy()
                neighbor[source] -= amount
                neighbor[target] += amount
                yield neighbor.astype(float) * step
