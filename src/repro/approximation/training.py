"""Simulation-based learning of approximation architectures.

The generic loop from the paper (§5.1): "A module is first simulated and
the corresponding cost values stored in a large lookup table. This table
is then used to train a regression tree." A :class:`TrainingSet` holds
one simulated grid, its points with their outputs; :func:`train_tree`
fits a CART tree to one output column of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.approximation.regression_tree import RegressionTree


@dataclass
class TrainingSet:
    """Simulated (input, output) pairs, one output vector per input point."""

    inputs: list[tuple[float, ...]] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.outputs):
            raise ConfigurationError(
                f"training-set inputs and outputs must align: "
                f"{len(self.inputs)} inputs, {len(self.outputs)} outputs"
            )

    @property
    def size(self) -> int:
        """Number of samples collected."""
        return len(self.inputs)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (X, Y) design matrices."""
        if not self.inputs:
            raise ConfigurationError("training set is empty")
        return np.asarray(self.inputs, dtype=float), np.vstack(self.outputs)

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free (floats round-trip)."""
        return {
            "inputs": [list(point) for point in self.inputs],
            "outputs": [output.tolist() for output in self.outputs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingSet":
        """Rebuild a training set from :meth:`to_dict` output."""
        for key in ("inputs", "outputs"):
            if key not in payload:
                raise ConfigurationError(
                    f"training-set payload needs a {key!r} key"
                )
        return cls(
            [tuple(float(v) for v in point) for point in payload["inputs"]],
            [
                np.asarray(output, dtype=float).reshape(-1)
                for output in payload["outputs"]
            ],
        )


def train_tree(
    dataset: TrainingSet,
    target_column: int = 0,
    max_depth: int = 10,
    min_samples_leaf: int = 2,
) -> RegressionTree:
    """Fit a compact CART tree to one output column of a training set."""
    x, y = dataset.as_arrays()
    if not 0 <= target_column < y.shape[1]:
        raise ConfigurationError(
            f"target_column {target_column} out of range for {y.shape[1]} outputs"
        )
    tree = RegressionTree(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    return tree.fit(x, y[:, target_column])
