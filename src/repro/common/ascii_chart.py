"""Plain-text rendering of time series for benchmark reports.

The benchmark harness reproduces the paper's *figures*; since the
environment is headless, each figure is emitted as an ASCII chart plus a
downsampled numeric table. These renderings go to stdout and to
``benchmarks/out/*.txt``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 80) -> str:
    """Render ``values`` as a one-line unicode sparkline of ``width`` chars."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return ""
    arr = _downsample(arr, width)
    lo, hi = float(np.nanmin(arr)), float(np.nanmax(arr))
    if hi <= lo:
        return _BLOCKS[1] * arr.size
    scaled = (arr - lo) / (hi - lo) * (len(_BLOCKS) - 2) + 1
    return "".join(_BLOCKS[int(round(v))] for v in scaled)


def line_chart(
    values: Sequence[float],
    title: str = "",
    height: int = 12,
    y_label: str = "",
) -> str:
    """Render a multi-row ASCII line chart, 78 columns wide, paper-figure style."""
    arr = np.asarray(values, dtype=float)
    lines: list[str] = []
    if title:
        lines.append(title)
    if arr.size == 0:
        lines.append("(empty series)")
        return "\n".join(lines)
    arr = _downsample(arr, 78)
    lo, hi = float(np.nanmin(arr)), float(np.nanmax(arr))
    span = hi - lo if hi > lo else 1.0
    rows = [[" "] * arr.size for _ in range(height)]
    for x, v in enumerate(arr):
        if np.isnan(v):
            continue
        y = int(round((v - lo) / span * (height - 1)))
        rows[height - 1 - y][x] = "*"
    gutter = max(len(f"{hi:.3g}"), len(f"{lo:.3g}"), len(y_label))
    for i, row in enumerate(rows):
        if i == 0:
            label = f"{hi:.3g}"
        elif i == height - 1:
            label = f"{lo:.3g}"
        elif i == height // 2 and y_label:
            label = y_label
        else:
            label = ""
        lines.append(f"{label:>{gutter}} |{''.join(row)}")
    lines.append(f"{'':>{gutter}} +{'-' * arr.size}")
    return "\n".join(lines)


def series_table(
    columns: dict[str, Sequence[float]],
    index_name: str = "t",
    max_rows: int = 20,
) -> str:
    """Render named series as an aligned text table, downsampled to max_rows.

    Values print in ``.4g`` format.
    """
    if not columns:
        return "(no data)"
    lengths = {len(v) for v in columns.values()}
    n = max(lengths)
    idx = np.linspace(0, n - 1, min(max_rows, n)).astype(int)
    headers = [index_name] + list(columns)
    table_rows = []
    for i in idx:
        row = [str(int(i))]
        for series in columns.values():
            arr = np.asarray(series, dtype=float)
            row.append(f"{arr[i]:.4g}" if i < arr.size else "-")
        table_rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in table_rows))
        for c in range(len(headers))
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in table_rows:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(out)


def _downsample(arr: np.ndarray, width: int) -> np.ndarray:
    """Average-pool ``arr`` down to at most ``width`` points."""
    if arr.size <= width:
        return arr
    edges = np.linspace(0, arr.size, width + 1).astype(int)
    return np.array(
        [np.nanmean(arr[a:b]) if b > a else np.nan for a, b in zip(edges[:-1], edges[1:])]
    )
