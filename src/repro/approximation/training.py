"""Simulation-based learning of approximation architectures.

The generic loop from the paper (§5.1): "A module is first simulated and
the corresponding cost values stored in a large lookup table. This table
is then used to train a regression tree." :func:`train_table` sweeps a
quantised input grid through a black-box simulation; :func:`train_tree`
fits a CART tree to the resulting dataset.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.regression_tree import RegressionTree
from repro.approximation.table import LookupTableMap


@dataclass
class TrainingSet:
    """Accumulated (input, output) pairs from simulation sweeps."""

    inputs: list[tuple[float, ...]] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)

    def add(self, point: Sequence[float], output: Sequence[float]) -> None:
        """Record one simulated sample."""
        self.inputs.append(tuple(float(v) for v in point))
        self.outputs.append(np.asarray(output, dtype=float).reshape(-1))

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
        if len(payload["inputs"]) != len(payload["outputs"]):
            raise ConfigurationError(
                "training-set inputs and outputs must align"
            )
        dataset = cls()
        for point, output in zip(payload["inputs"], payload["outputs"]):
            dataset.add(point, output)
        return dataset


def train_table(
    simulate: Callable[[tuple[float, ...]], Sequence[float]],
    quantizer: GridQuantizer,
    output_dim: int = 1,
) -> tuple[LookupTableMap, TrainingSet]:
    """Sweep every grid point through ``simulate`` and fill a lookup table.

    A thin front over :class:`repro.maps.plan.TrainingPlan` that calls
    ``simulate`` once per point, in row-major grid order. Returns the
    populated table plus the raw training set (reusable for tree
    fitting without re-simulating).
    """
    from repro.maps.plan import TrainingPlan

    plan = TrainingPlan(
        simulate=lambda points: [simulate(point) for point in points],
        quantizer=quantizer,
        output_dim=output_dim,
    )
    return plan.execute()


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
