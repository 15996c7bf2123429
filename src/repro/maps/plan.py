"""Declarative offline training over a quantised grid.

The paper's offline learning loops (§4.2, §5.1) share one shape: run
every point of a quantised input grid through a simulation of the
controlled structure and collect the outputs. A :class:`TrainingPlan`
captures that shape once — the grid function, the grid, the output
arity — and turns the outputs into a lookup table and a dataset.

The grid function sees the whole grid at once, so a trainer can advance
every cell in lockstep (one batched L0 lookahead per substep, one L1
serving every cell) instead of simulating the cells one by one. The
outputs land in row-major grid order, as the points do.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.table import LookupTableMap
from repro.approximation.training import TrainingSet


@dataclass(frozen=True)
class TrainingPlan:
    """One offline training campaign over a quantised grid.

    Parameters
    ----------
    simulate:
        The grid function: takes the grid's points in row-major order
        and returns one output vector per point, in the same order.
    quantizer:
        The input grid to sweep (row-major cell order).
    output_dim:
        Expected output arity per cell; mismatches fail loudly.
    """

    simulate: "Callable[[list[tuple[float, ...]]], Sequence[Sequence[float]]]"
    quantizer: GridQuantizer
    output_dim: int = 1

    @property
    def cell_count(self) -> int:
        """Number of grid cells the plan simulates."""
        return self.quantizer.cell_count

    def execute(self) -> "tuple[LookupTableMap, TrainingSet]":
        """Simulate the grid; returns the populated table and raw dataset."""
        points = list(self.quantizer.grid_points())
        outputs = list(self.simulate(points))
        if len(outputs) != len(points):
            raise ConfigurationError(
                f"simulate returned {len(outputs)} outputs for "
                f"{len(points)} grid points"
            )
        table = LookupTableMap(self.quantizer, output_dim=self.output_dim)
        dataset = TrainingSet()
        for point, output in zip(points, outputs):
            output = tuple(float(v) for v in np.asarray(output).reshape(-1))
            if len(output) != self.output_dim:
                raise ConfigurationError(
                    f"simulate returned {len(output)} outputs for cell "
                    f"{point}, expected {self.output_dim}"
                )
            table.store(point, output)
            dataset.add(point, output)
        return table, dataset
