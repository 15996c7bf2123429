"""Hash-table function approximation over a quantised grid.

This realises the paper's abstraction map ``g``: "initially obtained in
off-line fashion by simulating the L0 controller using various values from
the input set". Offline training simulates every grid point, so the
table is dense: one output row per grid cell, in row-major order, built
straight from the training grid's output array. The paper's optional
online refinement from observed behaviour is not implemented: neither
engine would call it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.approximation.quantizer import GridQuantizer


class LookupTableMap:
    """One output row per grid cell of a quantiser, in row-major order.

    ``rows`` may be any ``(cells, outputs)`` sequence, a numpy array
    included; the table keeps it as one read-only float64 array, which
    the array queries of the behaviour maps gather from.
    """

    def __init__(
        self, quantizer: GridQuantizer, rows: "Sequence[Sequence[float]]"
    ) -> None:
        width = "every table row needs the same number (>= 1) of outputs"
        try:
            rows = np.array(rows, dtype=float)
        except ValueError:  # rows of unequal length
            raise ConfigurationError(width) from None
        if len(rows) != quantizer.cell_count:
            raise ConfigurationError(
                f"table needs one row per grid cell: {len(rows)} rows "
                f"for {quantizer.cell_count} cells"
            )
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ConfigurationError(width)
        rows.setflags(write=False)
        self.quantizer = quantizer
        self.output_dim = rows.shape[1]
        self.rows = rows
        # Row-major flat-index step per dimension.
        strides = [1] * quantizer.dimensions
        for d in range(quantizer.dimensions - 1, 0, -1):
            strides[d - 1] = strides[d] * len(quantizer.levels[d])
        self.strides = tuple(strides)

    def at(self, indices: "tuple[int, ...]") -> "tuple[float, ...]":
        """The outputs of the cell at in-range grid ``indices``."""
        flat = sum(index * stride for index, stride in zip(indices, self.strides))
        return tuple(self.rows[flat].tolist())

    # ------------------------------------------------------------------
    # Serialisation (trained-map artifacts round-trip through JSON)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; JSON-safe and loss-free (floats round-trip).

        Each cell serialises as its index list and its outputs, in
        row-major order.
        """
        cells = [
            [list(indices), row]
            for indices, row in zip(self.quantizer.grid_indices(), self.rows.tolist())
        ]
        return {
            "quantizer": self.quantizer.to_dict(),
            "output_dim": self.output_dim,
            "cells": cells,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LookupTableMap":
        """Rebuild a table from :meth:`to_dict` output (revalidates).

        The payload must list every grid cell once, in row-major order,
        each with ``output_dim`` outputs.
        """
        for key in ("quantizer", "output_dim", "cells"):
            if key not in payload:
                raise ConfigurationError(f"table payload needs a {key!r} key")
        quantizer = GridQuantizer.from_dict(payload["quantizer"])
        output_dim = int(payload["output_dim"])
        cells = payload["cells"]
        if len(cells) != quantizer.cell_count:
            raise ConfigurationError(
                f"table payload has {len(cells)} cells for a grid of "
                f"{quantizer.cell_count}"
            )
        rows = []
        for want, (key, value) in zip(quantizer.grid_indices(), cells):
            if tuple(key) != want:
                raise ConfigurationError(
                    f"table payload cell {list(key)} where the row-major "
                    f"grid has {list(want)}"
                )
            if len(value) != output_dim:
                raise ConfigurationError(
                    f"table payload cell {list(key)} has {len(value)} "
                    f"outputs, expected {output_dim}"
                )
            rows.append(value)
        return cls(quantizer, rows)
