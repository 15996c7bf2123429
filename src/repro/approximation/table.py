"""Hash-table function approximation over a quantised grid.

This realises the paper's abstraction map ``g``: "initially obtained in
off-line fashion by simulating the L0 controller using various values from
the input set". The paper's optional online refinement from observed
behaviour is not implemented: neither engine would call it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.approximation.quantizer import GridQuantizer


class LookupTableMap:
    """Maps quantised input points to output vectors."""

    def __init__(self, quantizer: GridQuantizer, output_dim: int = 1) -> None:
        if output_dim < 1:
            raise ConfigurationError("output_dim must be >= 1")
        self.quantizer = quantizer
        self.output_dim = int(output_dim)
        self._table: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def entries(self) -> int:
        """Number of populated grid cells."""
        return len(self._table)

    @property
    def coverage(self) -> float:
        """Fraction of the grid populated."""
        return self.entries / self.quantizer.cell_count

    def store(self, point: Sequence[float], output: Sequence[float]) -> None:
        """Record the output for the grid cell containing ``point``."""
        key = self.quantizer.snap_indices(point)
        value = np.asarray(output, dtype=float).reshape(-1)
        if value.shape != (self.output_dim,):
            raise ConfigurationError(
                f"output must have {self.output_dim} entries, got {value.shape}"
            )
        self._table[key] = value.copy()

    def query(self, point: Sequence[float]) -> np.ndarray:
        """Output stored at the nearest populated cell.

        Falls back to the nearest populated neighbour (Manhattan ring
        search) when the snapped cell is empty — the training grid can be
        sparse at the domain edges.
        """
        if not self._table:
            raise NotTrainedError("lookup table is empty; train it first")
        key = self.quantizer.snap_indices(point)
        hit = self._table.get(key)
        if hit is not None:
            return hit.copy()
        return self._nearest_populated(key).copy()

    def exact_at(self, indices: "tuple[int, ...]") -> "np.ndarray | None":
        """Stored output at exact grid ``indices``, or ``None`` if empty.

        The hot-path counterpart of :meth:`query`: no snapping, no
        neighbour fallback, no copy. The returned array is the table's
        own storage — callers must treat it as read-only (use
        :meth:`query` for an owned copy).
        """
        return self._table.get(indices)

    def exact(self, point: Sequence[float]) -> "np.ndarray | None":
        """Stored output for the cell containing ``point`` (no fallback).

        Snaps ``point`` to its grid cell and returns that cell's stored
        vector, or ``None`` when the cell was never populated. Same
        read-only contract as :meth:`exact_at`.
        """
        return self._table.get(self.quantizer.snap_indices(point))

    # ------------------------------------------------------------------
    # Serialisation (trained-map artifacts round-trip through JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free (floats round-trip).

        Cell keys serialise as row-major index lists alongside their
        output vectors, so sparse tables round-trip without inventing
        entries.
        """
        cells = [
            [list(key), value.tolist()]
            for key, value in sorted(self._table.items())
        ]
        return {
            "quantizer": self.quantizer.to_dict(),
            "output_dim": self.output_dim,
            "cells": cells,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LookupTableMap":
        """Rebuild a table from :meth:`to_dict` output (revalidates)."""
        for key in ("quantizer", "output_dim", "cells"):
            if key not in payload:
                raise ConfigurationError(f"table payload needs a {key!r} key")
        table = cls(
            GridQuantizer.from_dict(payload["quantizer"]),
            output_dim=int(payload["output_dim"]),
        )
        for key, value in payload["cells"]:
            indices = tuple(int(i) for i in key)
            if len(indices) != table.quantizer.dimensions:
                raise ConfigurationError(
                    f"cell key {indices} does not match the "
                    f"{table.quantizer.dimensions}-dimensional grid"
                )
            output = np.asarray(value, dtype=float).reshape(-1)
            if output.shape != (table.output_dim,):
                raise ConfigurationError(
                    f"cell output must have {table.output_dim} entries, "
                    f"got {output.shape}"
                )
            table._table[indices] = output
        return table

    def _nearest_populated(self, key: tuple[int, ...]) -> np.ndarray:
        best_key = min(
            self._table,
            key=lambda other: sum(abs(a - b) for a, b in zip(key, other)),
        )
        return self._table[best_key]
