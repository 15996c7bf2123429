"""Prometheus text exposition (and a parser for round-trip tests).

Counters and gauges render as their own kind; histograms render as
Prometheus *summaries* — ``name{quantile="0.9"}`` series from the P²
sketches plus ``name_sum`` / ``name_count`` — because the live
percentile estimate is the read this repo's operators actually want.

:func:`parse_prometheus_text` implements just enough of the format to
verify a round trip in tests and the CI obs-smoke job: comments carry
the family kinds, samples carry name + labels + value.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError

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


def _parse_labels(text: str) -> dict:
    labels: dict = {}
    index = 0
    while index < len(text):
        equals = text.index("=", index)
        name = text[index:equals].strip().lstrip(",").strip()
        if text[equals + 1] != '"':
            raise ConfigurationError(f"unquoted label value near {text!r}")
        value_chars: "list[str]" = []
        cursor = equals + 2
        while True:
            char = text[cursor]
            if char == "\\":
                escaped = text[cursor + 1]
                value_chars.append(
                    {"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped)
                )
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        labels[name] = "".join(value_chars)
        index = cursor + 1
    return labels


def parse_prometheus_text(text: str) -> "tuple[dict, dict]":
    """Parse exposition text into ``(kinds, samples)``.

    ``kinds`` maps family name to its declared TYPE; ``samples`` maps
    ``(metric_name, sorted-label tuple)`` to the float value.
    """
    kinds: "dict[str, str]" = {}
    samples: "dict[tuple, float]" = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            kinds[name] = kind
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[: line.index("{")]
            labels_text = line[line.index("{") + 1 : line.rindex("}")]
            labels = _parse_labels(labels_text)
            value_text = line[line.rindex("}") + 1 :].strip()
        else:
            name, value_text = line.rsplit(None, 1)
            labels = {}
        key = (name, tuple(sorted(labels.items())))
        samples[key] = float(value_text)
    return kinds, samples
