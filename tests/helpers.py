"""Helpers and oracles the tests share; nothing in ``src/`` uses them.

* :class:`HookCounter` — an observer that counts each hook's firings;
* :class:`MemorySink` — a span sink that keeps every span in a list;
* :func:`parse_prometheus_text` — just enough of the Prometheus text
  format to check a ``render_prometheus`` round trip;
* :func:`mm1_mean_response_time` / :func:`mm1_mean_queue_length` — the
  analytic M/M/1 formulas the queueing tests compare against;
* :func:`behavior_map_query` — one behaviour map queried through the L1's
  own array query, the behaviour-map query tests' subject;
* :func:`tree_depth` — the realised depth of a fitted regression tree;
* :func:`table_cell` — one cell's row of a lookup table, read through its
  row-major strides;
* :func:`kalman_forecast` — a Kalman filter's mean forecasts by the
  ``F @ state`` matrix loop, the oracle of ``WorkloadPredictor.forecast``.

``tests/conftest.py`` puts this directory on ``sys.path``, so every test
directory imports it as ``helpers``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.approximation.quantizer import nearest_level
from repro.common.errors import ConfigurationError
from repro.controllers.l1 import _MapBank
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


@lru_cache(maxsize=8)
def _single_map_bank(behavior_map):
    """One behaviour map alone as a bank, and its one computer's points."""
    bank = _MapBank([behavior_map])
    return bank, bank.points([0])


def behavior_map_query(behavior_map, queue, rate, work) -> "tuple[np.ndarray, np.ndarray]":
    """Query one behaviour map: ``(interval cost, final queue)``.

    Takes numbers or arrays, which broadcast together, and answers every
    point with one array query of the L1's map bank (0-d arrays for
    numbers).
    """
    bank, points = _single_map_bank(behavior_map)
    coordinates = [
        np.asarray(v, dtype=float)[..., None]
        for v in np.broadcast_arrays(queue, rate, work)
    ]
    costs, finals = bank.query(
        points,
        *coordinates,
        *(nearest_level(p, v) for p, v in zip(bank.pairs, coordinates)),
    )
    return costs[..., 0], finals[..., 0]


def tree_depth(tree, node: int = 0) -> int:
    """Realised depth of a fitted :class:`RegressionTree` below ``node``."""
    if tree.left[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def table_cell(table, indices) -> "tuple[float, ...]":
    """The outputs of a :class:`LookupTableMap`'s cell at grid ``indices``."""
    flat = sum(index * stride for index, stride in zip(indices, table.strides))
    return tuple(table.rows[flat].tolist())


def kalman_forecast(kalman, steps: int) -> np.ndarray:
    """Mean observation forecasts for 1..steps ahead (no side effects).

    The state-space form's own loop: ``F @ state`` once per step, read
    through ``H``.
    """
    if steps <= 0:
        return np.zeros(0)
    f, h = kalman.model.transition, kalman.model.observation
    state = kalman.state.copy()
    out = np.empty(steps)
    for i in range(steps):
        state = f @ state
        out[i] = float((h @ state)[0])
    return out
