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
  ``F @ state`` matrix loop, the oracle of ``WorkloadPredictor.forecast``;
* :func:`reference_map_query` — one behaviour-map point by the scalar
  nearest-level snap and closed-form rollout, the array query's oracle;
* :func:`reference_l1_decide` — the per-candidate L1 search the array
  kernel replaced, the oracle of every L1 decision.

``tests/conftest.py`` puts this directory on ``sys.path``, so every test
directory imports it as ``helpers``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.approximation.quantizer import nearest_level
from repro.common.errors import ConfigurationError, ControlError
from repro.controllers.l1 import L1Decision, _MapBank
from repro.core.simplex import quantize_to_simplex, simplex_neighbors
from repro.core.uncertainty import three_point_band
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
    """One behaviour map alone as a bank."""
    return _MapBank([behavior_map])


def behavior_map_query(behavior_map, queue, rate, work) -> "tuple[np.ndarray, np.ndarray]":
    """Query one behaviour map: ``(interval cost, final queue)``.

    Takes numbers or arrays, which broadcast together, and answers every
    point with one array query of the L1's map bank (0-d arrays for
    numbers): a row per point, each snapped to its cell in the table's
    row-major layout.
    """
    bank = _single_map_bank(behavior_map)
    coordinates = [np.asarray(v, dtype=float) for v in np.broadcast_arrays(queue, rate, work)]
    shape = coordinates[0].shape
    queue, rate, work = (v.reshape(-1, 1) for v in coordinates)
    cells = bank.offsets[0] + sum(
        nearest_level(pairs, v) * stride
        for pairs, v, stride in zip(bank.pairs, (queue, rate, work), bank.strides[0])
    )
    costs, finals = bank.query(
        np.zeros(1, dtype=np.intp), cells[:, None], queue, rate[:, None], work[:, 0]
    )
    return costs.reshape(shape), finals.reshape(shape)


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


def _nearest(levels, value) -> int:
    """The scalar nearest-level rule: bisect, a tie to the lower level."""
    pos = bisect_left(levels, value)
    if pos == 0:
        return 0
    if pos >= len(levels):
        return len(levels) - 1
    before, after = levels[pos - 1], levels[pos]
    return pos - 1 if value - before <= after - value else pos


def _reference_rollout(behavior_map, queue, rate, work):
    """The scalar closed-form overload cost the array rollout replaced."""
    params = behavior_map.l0_params
    speed = behavior_map.spec.effective_speed_factor
    capacity = speed / work * params.period
    power = behavior_map.spec.base_power + behavior_map.spec.power_scale  # phi = 1
    q = float(queue)
    total_cost = 0.0
    for _ in range(behavior_map.substeps):
        q = max(0.0, q + rate * params.period - capacity)
        response = (1.0 + q) * work / speed
        slack = max(0.0, response - params.target_response)
        total_cost += params.weights.tracking * slack
        total_cost += params.weights.operating * power
    return total_cost, q


def reference_map_query(behavior_map, queue, rate, work):
    """The scalar map query the array query replaced (test oracle).

    Snaps each coordinate to its nearest grid level and reads the table
    cell, unless the rate is past the trained maximum: then the
    closed-form saturated rollout answers.
    """
    queue_levels, rate_levels, work_levels = behavior_map.table.quantizer.levels
    if rate > rate_levels[-1]:
        return _reference_rollout(behavior_map, queue, rate, work)
    return table_cell(
        behavior_map.table,
        (
            _nearest(queue_levels, queue),
            _nearest(rate_levels, rate),
            _nearest(work_levels, work),
        )
    )


@dataclass(frozen=True)
class _DecisionPoint:
    """Inputs of one L1 decision that every candidate's cost shares.

    Computed once per :meth:`_ReferenceL1.decide`: the arrival-rate
    samples of both horizon terms and the memo-key parts that do not
    depend on the candidate.
    """

    queues: np.ndarray
    work: float
    samples: list  # first-term rates: the band around rate_hat
    next_samples: list  # second-term rates: the band around rate_next
    map_ids: "list[int]"  # id(maps[j]), the memo key's map part


class _ReferenceL1:
    """The per-candidate L1 search the array kernel replaced (test oracle).

    ``decide`` walks every (alpha, gamma) candidate and costs it with
    ``_horizon_cost``: one map query per computer and band sample, each
    with the scalar :func:`reference_map_query`, memoised on the exact
    point, so every point's result is that point's own query. The loop
    and its order of addition are those of the former
    ``L1Controller.decide``; it reads the controller's maps, params and
    capacities and keeps its own caches.
    """

    def __init__(self, controller) -> None:
        self.spec = controller.spec
        self.params = controller.params
        self.l0_params = controller.l0_params
        self.maps = controller.maps
        self.capacities = controller.capacities
        self._base_powers = controller._base_powers
        self._gamma_candidates: "dict[bytes, tuple[np.ndarray, ...]]" = {}
        self._gamma_next: "dict[bytes, np.ndarray]" = {}

    def decide(
        self,
        queues: np.ndarray,
        alpha_current: np.ndarray,
        rate_hat: float,
        rate_next: float,
        delta: float,
        work: float,
        available: np.ndarray | None = None,
    ) -> L1Decision:
        queues = np.asarray(queues, dtype=float)
        alpha_current = np.asarray(alpha_current).astype(bool)
        m = self.spec.size
        if available is None:
            available = np.ones(m, dtype=bool)
        else:
            available = np.asarray(available).astype(bool)
            if not available.any():
                raise ControlError("no machine available to serve the module")
            alpha_current = alpha_current & available
        self._available = available
        explored = 0
        best_cost = float("inf")
        best_alpha: np.ndarray | None = None
        best_gamma: np.ndarray | None = None
        self._memo: dict[tuple, tuple[float, float]] = {}
        point = _DecisionPoint(
            queues=queues,
            work=work,
            samples=list(three_point_band(rate_hat, delta)) if delta > 0 else [rate_hat],
            next_samples=(
                list(three_point_band(rate_next, delta)) if delta > 0 else [rate_next]
            ),
            map_ids=[id(m) for m in self.maps],
        )
        for alpha in self._candidate_alphas(alpha_current):
            serving_now = alpha & alpha_current
            if not serving_now.any():
                continue
            context = self._alpha_context(alpha, alpha_current)
            for gamma in self._candidate_gammas(serving_now):
                cost, states = self._horizon_cost(point, context, gamma)
                explored += states
                if cost < best_cost:
                    best_cost = cost
                    best_alpha = alpha
                    best_gamma = gamma
        if best_alpha is None:
            raise ControlError("no admissible (alpha, gamma) candidate found")
        return L1Decision(
            alpha=best_alpha.astype(int),
            gamma=best_gamma,
            expected_cost=best_cost,
            states_explored=explored,
        )

    def _candidate_alphas(self, alpha_current: np.ndarray) -> list[np.ndarray]:
        m = alpha_current.size
        available = getattr(self, "_available", np.ones(m, dtype=bool))
        candidates = [alpha_current.copy()]
        for j in range(m):
            candidate = alpha_current.copy()
            if not candidate[j] and not available[j]:
                continue  # cannot switch on a failed machine
            candidate[j] = not candidate[j]
            if candidate.any():  # never turn the whole module off
                candidates.append(candidate)
        return candidates

    def _candidate_gammas(self, serving: np.ndarray) -> "tuple[np.ndarray, ...]":
        mask = serving.tobytes()
        cached = self._gamma_candidates.get(mask)
        if cached is not None:
            return cached
        weights = np.where(serving, self.capacities, 0.0)
        seed = quantize_to_simplex(weights, self.params.gamma_step)
        candidates = [seed]
        if self.params.gamma_neighborhood_moves > 0:
            for neighbor in simplex_neighbors(
                seed, self.params.gamma_step, moves=self.params.gamma_neighborhood_moves
            ):
                # gamma may only load machines that are serving now.
                if np.any(neighbor[~serving] > 0):
                    continue
                candidates.append(neighbor)
                if len(candidates) >= self.params.max_gamma_candidates:
                    break
        for candidate in candidates:
            candidate.setflags(write=False)
        cached = self._gamma_candidates[mask] = tuple(candidates)
        return cached

    def _alpha_context(
        self, alpha: np.ndarray, alpha_current: np.ndarray
    ) -> dict:
        """Per-alpha quantities shared by every gamma candidate."""
        serving_now = alpha & alpha_current
        booting = alpha & ~alpha_current
        draining = ~alpha & alpha_current
        substeps = self.substep_count()
        fixed = self.params.switching_weight * int(booting.sum())
        for j in np.flatnonzero(booting):
            fixed += self._base_powers[j] * substeps
        mask = alpha.tobytes()
        gamma_next = self._gamma_next.get(mask)
        if gamma_next is None:
            gamma_next = quantize_to_simplex(
                np.where(alpha, self.capacities, 0.0), self.params.gamma_step
            )
            gamma_next.setflags(write=False)
            self._gamma_next[mask] = gamma_next
        return {
            "alpha": alpha,
            "serving_idx": [int(j) for j in np.flatnonzero(serving_now)],
            "draining_idx": [int(j) for j in np.flatnonzero(draining)],
            "on_idx": [int(j) for j in np.flatnonzero(alpha)],
            "serving_now": serving_now,
            "fixed_cost": fixed,
            "gamma_next": gamma_next,
        }

    def _horizon_cost(
        self, point: "_DecisionPoint", context: dict, gamma: np.ndarray
    ) -> tuple[float, int]:
        """Expected cost of periods k and k+1 under a candidate.

        Returns (cost, states evaluated). Each sampled arrival rate is one
        predicted system state, matching the paper's exploration metric.
        """
        queues = point.queues
        map_ids = point.map_ids
        work = point.work
        total = context["fixed_cost"]
        weight = 1.0 / len(point.samples)
        next_queues = {j: 0.0 for j in context["serving_idx"]}
        for rate in point.samples:
            step_cost = 0.0
            for j in context["serving_idx"]:
                share = gamma[j] * rate
                key = (map_ids[j], queues[j], share, work)
                cost_j, next_q = self._query(key, j, queues[j], share, work)
                step_cost += cost_j
                next_queues[j] += next_q * weight
            for j in context["draining_idx"]:
                key = (map_ids[j], queues[j], 0.0, work)
                cost_j, _ = self._query(key, j, queues[j], 0.0, work)
                step_cost += cost_j
            total += step_cost * weight

        # Second horizon term: boots have completed; load re-allocated
        # capacity-proportionally over the candidate's on-set.
        gamma_next = context["gamma_next"]
        next_weight = 1.0 / len(point.next_samples)
        for rate in point.next_samples:
            step_cost = 0.0
            for j in context["on_idx"]:
                start_queue = next_queues.get(j, 0.0)
                share = gamma_next[j] * rate
                key = (map_ids[j], start_queue, share, work)
                cost_j, _ = self._query(key, j, start_queue, share, work)
                step_cost += cost_j
            total += step_cost * next_weight
        return total, len(point.samples) + len(point.next_samples)

    def _query(
        self, key: tuple, j: int, queue: float, rate: float, work: float
    ) -> tuple[float, float]:
        """Memoised abstraction-map lookup for computer ``j``.

        ``key`` is ``(id(self.maps[j]), queue, rate, work)``, the exact
        point. It names the map rather than the computer, so
        same-profile machines at the same operating point share one
        evaluation, and only equal points share one.
        """
        hit = self._memo.get(key)
        if hit is None:
            hit = reference_map_query(self.maps[j], queue, rate, work)
            self._memo[key] = hit
        return hit

    def substep_count(self) -> int:
        return round(self.params.period / self.l0_params.period)


def reference_l1_decide(controller, queues, alpha_current, *args, **kwargs):
    """The per-candidate loop's decision for ``controller.decide``'s inputs.

    The oracle of every L1 decision: each row of an
    :meth:`~repro.controllers.l1.L1Bank.decide` pass equals it on that
    row alone, bit for bit. It records nothing on ``controller``.
    """
    return _ReferenceL1(controller).decide(queues, alpha_current, *args, **kwargs)
