"""Zipf popularity distributions.

Web object popularity "commonly follows Zipf's law" (Arlitt & Williamson,
cited by the paper): the i-th most popular object is requested with
probability proportional to ``1 / i**exponent``.
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import require_positive


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf probabilities over ranks 1..n."""
    n = int(require_positive(n, "n"))
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()
