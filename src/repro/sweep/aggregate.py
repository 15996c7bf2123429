"""Aggregate stored sweep results into tables and reports.

Rows group by a subset of the override keys (by default everything
except ``seed``, the canonical replicate axis) and every stored metric
reduces to count/mean/std/min/max per group. The same aggregate renders
two ways: an aligned text table for terminals and a sorted-key JSON
document for machines. Both are pure functions of the sorted row set,
so any two stores with equal rows — serial, parallel, or resumed —
render byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigurationError
from repro.sweep.store import SUMMARY_METRICS, ResultStore, RunRow

#: Metrics shown in the text table (the JSON report carries them all).
TABLE_METRICS = (
    "mean_response",
    "violation_fraction",
    "total_energy",
    "mean_computers_on",
)


@dataclass(frozen=True)
class MetricAggregate:
    """count/mean/std/min/max of one metric over one group."""

    count: int
    mean: float
    std: float
    min: float
    max: float

    @classmethod
    def over(cls, values: "list[float]") -> "MetricAggregate":
        n = len(values)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / n
        return cls(
            count=n,
            mean=mean,
            std=math.sqrt(variance),
            min=min(values),
            max=max(values),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


@dataclass(frozen=True)
class AggregateGroup:
    """One group-by cell: its key and per-metric aggregates."""

    key: dict
    count: int
    metrics: "dict[str, MetricAggregate]"


def _group_sort_key(key: dict) -> tuple:
    # Mixed value types (ints, floats, strings) must order totally and
    # reproducibly: sort per field by (type tag, value).
    parts = []
    for field in sorted(key):
        value = key[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            parts.append((field, 1, str(value)))
        else:
            parts.append((field, 0, float(value)))
    return tuple(parts)


def aggregate_rows(
    rows: "tuple[RunRow, ...]",
    group_by: "tuple[str, ...] | None" = None,
) -> "tuple[AggregateGroup, ...]":
    """Group rows and reduce every stored metric.

    ``group_by = None`` groups on every override key present except
    ``seed`` — the usual "statistics over replicates" view. An explicit
    empty tuple collapses everything into one group.
    """
    if not rows:
        raise ConfigurationError("no completed runs to aggregate")
    if group_by is None:
        seen: "dict[str, None]" = {}
        for row in rows:
            seen.update(dict.fromkeys(row.overrides))
        group_by = tuple(field for field in seen if field != "seed")
    else:
        group_by = tuple(group_by)
        known: "set[str]" = set()
        for row in rows:
            known.update(row.overrides)
        unknown = [field for field in group_by if field not in known]
        if unknown:
            raise ConfigurationError(
                f"group-by fields {unknown} not among the swept keys: "
                f"{', '.join(sorted(known)) or '(none)'}"
            )

    grouped: "dict[tuple, tuple[dict, list[RunRow]]]" = {}
    for row in sorted(rows, key=lambda row: row.index):
        key = {field: row.overrides.get(field) for field in group_by}
        token = _group_sort_key(key)
        grouped.setdefault(token, (key, []))[1].append(row)

    groups = []
    for token in sorted(grouped):
        key, members = grouped[token]
        metrics = {}
        for name in SUMMARY_METRICS:
            values = [float(row.metrics[name]) for row in members]
            metrics[name] = MetricAggregate.over(values)
        groups.append(
            AggregateGroup(key=key, count=len(members), metrics=metrics)
        )
    return tuple(groups)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _cell(aggregate: MetricAggregate) -> str:
    if aggregate.count == 1:
        return f"{aggregate.mean:.4g}"
    return f"{aggregate.mean:.4g} ±{aggregate.std:.2g}"


def render_table(groups: "tuple[AggregateGroup, ...]") -> str:
    """Aligned text table: one row per group, mean ±std per :data:`TABLE_METRICS`."""
    if not groups:
        raise ConfigurationError("no groups to render")
    key_fields = sorted(groups[0].key)
    headers = [*key_fields, "runs", *TABLE_METRICS]
    lines = []
    for group in groups:
        lines.append(
            [
                *(str(group.key[field]) for field in key_fields),
                str(group.count),
                *(_cell(group.metrics[name]) for name in TABLE_METRICS),
            ]
        )
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in lines))
        for i in range(len(headers))
    ]
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    ruler = "  ".join("-" * width for width in widths)
    return "\n".join([fmt(headers), ruler, *(fmt(line) for line in lines)])


def report_payload(
    groups: "tuple[AggregateGroup, ...]", sweep_name: str = ""
) -> dict:
    """Machine-readable aggregate document."""
    return {
        "sweep": sweep_name,
        "group_by": sorted(groups[0].key) if groups else [],
        "groups": [
            {
                "key": group.key,
                "count": group.count,
                "metrics": {
                    name: aggregate.to_dict()
                    for name, aggregate in group.metrics.items()
                },
            }
            for group in groups
        ],
    }


def write_report(
    store_dir: "Path | str",
    group_by: "tuple[str, ...] | None" = None,
) -> str:
    """Aggregate a store and write ``report.txt`` + ``report.json``.

    Returns the rendered text table. Output depends only on the stored
    rows, so serial/parallel/resumed campaigns write identical reports.
    """
    store = ResultStore(store_dir)
    header = store.header()
    groups = aggregate_rows(store.rows(), group_by=group_by)
    table = render_table(groups)
    payload = report_payload(groups, sweep_name=header.get("name", ""))
    (store.directory / "report.txt").write_text(table + "\n")
    (store.directory / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return table
