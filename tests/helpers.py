"""Helpers and oracles the tests share; nothing in ``src/`` uses them.

* :class:`HookCounter` — an observer that counts each hook's firings;
* :class:`MemorySink` — a span sink that keeps every span in a list;
* :func:`parse_prometheus_text` — just enough of the Prometheus text
  format to check a ``render_prometheus`` round trip;
* :func:`mm1_mean_response_time` / :func:`mm1_mean_queue_length` — the
  analytic M/M/1 formulas the queueing tests compare against.

``tests/conftest.py`` puts this directory on ``sys.path``, so every test
directory imports it as ``helpers``.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.sim.observers import SimulationObserver


class MemorySink:
    """Buffer spans in memory."""

    def __init__(self) -> None:
        self.spans: "list[dict]" = []

    def emit(self, span: dict) -> None:
        self.spans.append(span)

    def clear(self) -> None:
        self.spans = []

    def close(self) -> None:
        pass


class HookCounter(SimulationObserver):
    """Counts hook firings."""

    def __init__(self) -> None:
        self.counts = {
            "run_start": 0,
            "l1_decision": 0,
            "l2_decision": 0,
            "step": 0,
            "period_end": 0,
            "run_end": 0,
        }

    def on_run_start(self, simulation) -> None:
        self.counts["run_start"] += 1

    def on_l1_decision(self, event) -> None:
        self.counts["l1_decision"] += 1

    def on_l2_decision(self, event) -> None:
        self.counts["l2_decision"] += 1

    def on_step(self, event) -> None:
        self.counts["step"] += 1

    def on_period_end(self, event) -> None:
        self.counts["period_end"] += 1

    def on_run_end(self, result) -> None:
        self.counts["run_end"] += 1


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


def _check_stable(arrival_rate: float, service_rate: float) -> None:
    if arrival_rate < 0 or service_rate <= 0:
        raise ConfigurationError("rates must be non-negative / positive")
    if arrival_rate >= service_rate:
        raise ConfigurationError(
            f"unstable queue: lambda={arrival_rate} >= mu={service_rate}"
        )


def mm1_mean_response_time(arrival_rate: float, service_rate: float) -> float:
    """Mean sojourn time W = 1 / (mu - lambda)."""
    _check_stable(arrival_rate, service_rate)
    return 1.0 / (service_rate - arrival_rate)


def mm1_mean_queue_length(arrival_rate: float, service_rate: float) -> float:
    """Mean number in system L = rho / (1 - rho)."""
    _check_stable(arrival_rate, service_rate)
    rho = arrival_rate / service_rate
    return rho / (1.0 - rho)
