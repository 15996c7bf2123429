"""Declarative fan-out of grid-cell training simulations.

The paper's offline learning loops (§4.2, §5.1) share one shape: sweep
every point of a quantised input grid through a black-box cell
simulation and collect the outputs. A :class:`TrainingPlan` captures
that shape once — the cell function, the grid, the output arity — and
executes it either inline or fanned out over a spawn-started process
pool (the same spawn-safe seam the sweep executor uses).

Determinism is by construction: cells are independent (the cell
functions build fresh, stateless controllers per evaluation), the grid
is partitioned into contiguous row-major chunks, and outputs are
reassembled in grid order regardless of which worker finished first —
so a parallel-trained table is bit-for-bit identical to a serial one.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import require_positive_int
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.table import LookupTableMap
from repro.approximation.training import TrainingSet


def _evaluate_chunk(payload) -> "list[tuple[float, ...]]":
    """Worker entry point: run one contiguous chunk of grid cells.

    Module-level (and fed picklable payloads) so spawn-started workers
    can import it; results come back as plain float tuples.
    """
    simulate, points = payload
    return [
        tuple(float(v) for v in np.asarray(simulate(point)).reshape(-1))
        for point in points
    ]


@dataclass(frozen=True)
class TrainingPlan:
    """One offline training campaign over a quantised grid.

    Parameters
    ----------
    simulate:
        The cell function ``point -> output vector``. Must be picklable
        (a module-level function or a :func:`functools.partial` over
        one) when the plan runs with ``workers > 1``.
    quantizer:
        The input grid to sweep (row-major cell order).
    output_dim:
        Expected output arity per cell; mismatches fail loudly.
    """

    simulate: "Callable[[tuple[float, ...]], Sequence[float]]"
    quantizer: GridQuantizer
    output_dim: int = 1

    @property
    def cell_count(self) -> int:
        """Number of cell simulations the plan will run."""
        return self.quantizer.cell_count

    def execute(self, workers: int = 1) -> "tuple[LookupTableMap, TrainingSet]":
        """Run every cell; returns the populated table and raw dataset.

        ``workers = 1`` runs inline; more fan the cells out over a spawn
        pool. Either way the outputs land in row-major grid order, so
        the resulting table and dataset are bit-identical across worker
        counts.
        """
        require_positive_int(workers, "workers")
        points = list(self.quantizer.grid_points())
        if workers == 1 or len(points) <= 1:
            outputs = _evaluate_chunk((self.simulate, points))
        else:
            outputs = self._execute_parallel(points, workers)
        table = LookupTableMap(self.quantizer, output_dim=self.output_dim)
        dataset = TrainingSet()
        for point, output in zip(points, outputs):
            if len(output) != self.output_dim:
                raise ConfigurationError(
                    f"simulate returned {len(output)} outputs for cell "
                    f"{point}, expected {self.output_dim}"
                )
            table.store(point, output)
            dataset.add(point, output)
        return table, dataset

    def _execute_parallel(
        self, points: "list[tuple[float, ...]]", workers: int
    ) -> "list[tuple[float, ...]]":
        workers = min(workers, len(points))
        chunks = self._partition(points, workers)
        payloads = [(self.simulate, chunk) for chunk in chunks]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        ) as pool:
            results = list(pool.map(_evaluate_chunk, payloads))
        return [output for chunk in results for output in chunk]

    @staticmethod
    def _partition(
        points: "list[tuple[float, ...]]", workers: int
    ) -> "list[list[tuple[float, ...]]]":
        """Contiguous near-equal chunks, preserving row-major order."""
        base, extra = divmod(len(points), workers)
        chunks = []
        start = 0
        for i in range(workers):
            size = base + (1 if i < extra else 0)
            if size == 0:
                continue
            chunks.append(points[start : start + size])
            start += size
        return chunks
