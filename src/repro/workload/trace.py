"""Arrival-trace container.

A trace is a sequence of request *counts* per fixed-width time bin. The
controllers observe counts at their own sampling periods, so the container
supports rebinning (e.g. a 2-minute trace viewed at 30-second granularity
for L0 controllers) plus scaling and slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.validation import require_positive


@dataclass(frozen=True)
class ArrivalTrace:
    """Request counts per time bin.

    Parameters
    ----------
    counts:
        Non-negative request counts, one per bin.
    bin_seconds:
        Width of each bin in seconds.
    """

    counts: np.ndarray
    bin_seconds: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1 or counts.size == 0:
            raise ConfigurationError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise ConfigurationError("counts must be non-negative")
        require_positive(self.bin_seconds, "bin_seconds")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.counts.size

    @property
    def duration(self) -> float:
        """Total trace duration in seconds."""
        return self.counts.size * self.bin_seconds

    def scaled(self, factor: float) -> "ArrivalTrace":
        """Multiply all counts by ``factor`` (capacity-planning helper)."""
        require_positive(factor, "factor")
        return ArrivalTrace(self.counts * factor, self.bin_seconds)

    def sliced(self, start: int, stop: int | None = None) -> "ArrivalTrace":
        """Bin-index slice of the trace."""
        counts = self.counts[start:stop]
        if counts.size == 0:
            raise ConfigurationError("slice produced an empty trace")
        return ArrivalTrace(counts, self.bin_seconds)

    def rebinned(self, bin_seconds: float) -> "ArrivalTrace":
        """View the trace at a different bin width.

        Coarsening sums whole groups of bins (the new width must be an
        integer multiple of the old). Refining splits each bin evenly (the
        old width must be an integer multiple of the new) — adequate for
        fluid simulation where only per-bin totals matter.
        """
        require_positive(bin_seconds, "bin_seconds")
        if abs(bin_seconds - self.bin_seconds) < 1e-9:
            return self
        ratio = bin_seconds / self.bin_seconds
        if ratio > 1:
            group = round(ratio)
            if abs(group - ratio) > 1e-9:
                raise ConfigurationError(
                    "coarser bin width must be an integer multiple"
                )
            usable = (self.counts.size // group) * group
            if usable == 0:
                raise ConfigurationError("trace too short to rebin")
            grouped = self.counts[:usable].reshape(-1, group).sum(axis=1)
            return ArrivalTrace(grouped, bin_seconds)
        split = round(1.0 / ratio)
        if abs(split - 1.0 / ratio) > 1e-9:
            raise ConfigurationError("finer bin width must divide the old width")
        refined = np.repeat(self.counts / split, split)
        return ArrivalTrace(refined, bin_seconds)

    # ------------------------------------------------------------------
    # Loading (delimited text: bin start seconds, request count)
    # ------------------------------------------------------------------
    @classmethod
    def load_file(
        cls,
        path: "str | Path",
        column: int | None = None,
        units: str = "count",
        bin_seconds: float | None = None,
    ) -> "ArrivalTrace":
        """Read an arrival trace from a delimited text file.

        Accepts ``time_seconds,count`` rows and the common variations of
        logged rate files: comma- or whitespace-delimited columns, an
        optional ``# bin_seconds=...`` comment header, and an optional
        non-numeric column-title row. ``column`` picks the value column
        (0-based; default the last column of each row). ``units`` is
        ``"count"`` (requests per bin, the default) or ``"rate"``
        (requests per second, multiplied by the bin width). The bin
        width comes from, in order: the ``bin_seconds`` argument, the
        comment header, or the spacing of a leading time column.
        """
        path = Path(path)
        if units not in ("count", "rate"):
            raise ConfigurationError(
                f"trace units must be 'count' or 'rate', got {units!r}"
            )
        header_bin: float | None = None
        rows: "list[list[str]]" = []
        try:
            handle = path.open()
        except OSError as error:
            raise ConfigurationError(f"cannot read trace file: {error}") from None
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line.lstrip("# ").partition("=")
                    if key.strip() == "bin_seconds":
                        header_bin = float(value)
                    continue
                fields = (
                    [f.strip() for f in line.split(",")]
                    if "," in line
                    else line.split()
                )
                try:
                    float(fields[0])
                except ValueError:
                    continue  # column-title row
                rows.append(fields)
        if not rows:
            raise ConfigurationError(f"{path} holds no data rows")
        index = len(rows[0]) - 1 if column is None else column
        try:
            values = np.array([float(row[index]) for row in rows])
        except IndexError:
            raise ConfigurationError(
                f"{path} rows have no column {index} "
                f"(rows hold {len(rows[0])} columns)"
            ) from None
        except ValueError as error:
            raise ConfigurationError(
                f"{path} column {index} is not numeric: {error}"
            ) from None
        resolved = bin_seconds if bin_seconds is not None else header_bin
        if resolved is None and len(rows) >= 2 and len(rows[0]) >= 2 and index != 0:
            # Infer the bin width from a leading time column — which must
            # then be regularly spaced: a gap or variable-width bins would
            # silently shift every later count to the wrong simulated time.
            times = np.array([float(row[0]) for row in rows])
            widths = np.diff(times)
            resolved = float(widths[0])
            if resolved > 0 and np.any(
                np.abs(widths - resolved) > 1e-6 * abs(resolved)
            ):
                irregular = int(np.argmax(np.abs(widths - resolved) > 1e-6 * abs(resolved)))
                raise ConfigurationError(
                    f"{path} time column is not regularly spaced "
                    f"(bin {irregular + 1} spans {widths[irregular]:.6g}s, "
                    f"expected {resolved:.6g}s); fill the gap or pass "
                    "bin_seconds explicitly"
                )
        if resolved is None or not resolved > 0:
            raise ConfigurationError(
                f"{path} carries no bin width: pass bin_seconds, add a "
                "'# bin_seconds=...' header, or include a time column"
            )
        counts = values * resolved if units == "rate" else values
        return cls(counts, resolved)
