"""Prometheus text exposition.

Counters and gauges render as their own kind; histograms render as
Prometheus *summaries* — ``name{quantile="0.9"}`` series from the P²
sketches plus ``name_sum`` / ``name_count`` — because the live
percentile estimate is the read this repo's operators actually want.
"""

from __future__ import annotations

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(registry) -> str:
    """The registry as Prometheus text exposition format."""
    lines: "list[str]" = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        kind = "summary" if family.kind == "histogram" else family.kind
        lines.append(f"# TYPE {family.name} {kind}")
        for key, metric in sorted(family.series.items()):
            labels = dict(key)
            if family.kind == "histogram":
                for q, sketch in sorted(metric.sketches.items()):
                    quantile_labels = {**labels, "quantile": repr(q)}
                    lines.append(
                        f"{family.name}{_render_labels(quantile_labels)} "
                        f"{_format_value(sketch.value)}"
                    )
                lines.append(
                    f"{family.name}_sum{_render_labels(labels)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_render_labels(labels)} "
                    f"{_format_value(metric.count)}"
                )
            else:
                lines.append(
                    f"{family.name}{_render_labels(labels)} "
                    f"{_format_value(metric.value)}"
                )
    return "\n".join(lines) + "\n"
