"""The L1 controller: module-level on/off and load-fraction decisions (§4.2).

Decides, every T_L1 = 2 minutes, the operating state ``alpha_j`` of each
computer in its module and the quantised load fractions ``gamma_j``,
minimising

    sum_{q=k}^{k+N} sum_j alpha_j(q) * J~(x(q), gamma_j(q)) + ||Delta alpha||_W

subject to sum_j gamma_j = 1 and alpha_j >= gamma_j. Three pieces realise
the paper's design:

* **Abstraction map** — :class:`ComputerBehaviorMap`, a hash table learned
  offline by simulating an L0-controlled computer over a quantised
  (queue, arrival-rate, processing-time) grid for one T_L1 interval. It
  answers "what will this computer (with its L0 controller) cost, and
  where will its queue end up, if I give it this much load".
* **Bounded search** — candidate on/off vectors are restricted to a
  Hamming-radius-1 neighbourhood of the current configuration, and
  gamma candidates to a quantised-simplex neighbourhood of the
  capacity-proportional allocation.
* **Chattering mitigation** — every candidate is costed as the average of
  three arrival-rate samples ``lambda_hat - delta, lambda_hat,
  lambda_hat + delta`` (the forecast uncertainty band), plus the
  switch-on penalty W, so noise-driven on/off cycling is suppressed.

Boot dead time is honoured: a machine switched on at step k receives no
load and serves nothing during [k, k+1) (it costs base power plus W), and
contributes capacity from the *second* horizon term onward — turning a
machine on is only chosen when the forecast says the capacity will pay
for itself.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, ControlError
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.table import LookupTableMap
from repro.cluster.specs import ComputerSpec, ModuleSpec
from repro.controllers.l0 import L0Controller
from repro.controllers.params import L0Params, L1Params
from repro.controllers.stats import ControllerStats
from repro.core.simplex import quantize_to_simplex, simplex_neighbors
from repro.core.uncertainty import three_point_band
from repro.forecast.ewma import EwmaFilter
from repro.forecast.structural import WorkloadPredictor


def _behavior_training_cell(
    spec: ComputerSpec, l0_params: L0Params, substeps: int, point
) -> tuple[float, float]:
    """One behaviour-map grid cell (module-level: picklable for fan-out).

    Builds a fresh L0 controller per cell — ``decide`` is pure given
    its arguments, so per-cell construction produces floats identical
    to the historical shared-controller loop, while making the cells
    independent enough to run on any worker in any order.
    """
    controller = L0Controller(spec, l0_params)
    return ComputerBehaviorMap._simulate_cell(
        controller, point[0], point[1], point[2], substeps
    )


def _snap_index(grid: list[float], value: float) -> int:
    """Nearest-grid-value index via bisect (hot-path helper)."""
    pos = bisect_left(grid, value)
    if pos == 0:
        return 0
    if pos >= len(grid):
        return len(grid) - 1
    before, after = grid[pos - 1], grid[pos]
    return pos - 1 if value - before <= after - value else pos


@dataclass(frozen=True)
class L1Decision:
    """Outcome of one L1 optimisation."""

    alpha: np.ndarray  # on/off per computer (1 = on)
    gamma: np.ndarray  # load fraction per computer, sums to 1
    expected_cost: float
    states_explored: int


class ComputerBehaviorMap:
    """The abstraction map g for one computer type.

    Maps ``(queue, arrival_rate, work)`` to ``(cost over one T_L1
    interval, final queue length)``, trained by simulating the computer's
    L0 controller over ``substeps`` periods of T_L0.

    Queries beyond the trained arrival-rate domain are answered by a
    closed-form saturated-regime rollout (the L0 controller provably
    selects maximum frequency there), so deep overloads are costed
    correctly instead of being clamped to the grid edge.
    """

    def __init__(
        self,
        spec: ComputerSpec,
        table: LookupTableMap,
        substeps: int,
        l0_params: L0Params | None = None,
    ) -> None:
        self.spec = spec
        self.table = table
        self.substeps = substeps
        self.l0_params = l0_params or L0Params()
        self._max_trained_rate = float(table.quantizer.levels[1][-1])
        # Plain-list grids for bisect-based snapping on the query hot path.
        self._grids = [list(level) for level in table.quantizer.levels]

    @classmethod
    def training_plan(
        cls,
        spec: ComputerSpec,
        l0_params: L0Params | None = None,
        l1_period: float = 120.0,
        queue_levels: np.ndarray | None = None,
        rate_levels: np.ndarray | None = None,
        work_levels: np.ndarray | None = None,
    ):
        """The offline-learning campaign as a declarative plan.

        The grid defaults cover queue lengths from empty to deep backlog,
        arrival rates from zero to 140 % of the computer's full-speed
        capacity, and the virtual store's processing-time range.
        """
        from functools import partial

        from repro.maps.plan import TrainingPlan

        l0_params = l0_params or L0Params()
        substeps = round(l1_period / l0_params.period)
        if substeps < 1:
            raise ConfigurationError("l1_period must cover >= 1 L0 period")
        max_rate = spec.effective_speed_factor / 0.0175
        if queue_levels is None:
            queue_levels = np.array(
                [0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
            )
        if rate_levels is None:
            rate_levels = np.linspace(0.0, 1.4 * max_rate, 12)
        if work_levels is None:
            work_levels = np.array([0.012, 0.0175, 0.023])
        quantizer = GridQuantizer([queue_levels, rate_levels, work_levels])
        return TrainingPlan(
            simulate=partial(_behavior_training_cell, spec, l0_params, substeps),
            quantizer=quantizer,
            output_dim=2,
        )

    @classmethod
    def train(
        cls,
        spec: ComputerSpec,
        l0_params: L0Params | None = None,
        l1_period: float = 120.0,
        queue_levels: np.ndarray | None = None,
        rate_levels: np.ndarray | None = None,
        work_levels: np.ndarray | None = None,
        workers: int = 1,
    ) -> "ComputerBehaviorMap":
        """Offline simulation-based learning of the map (§4.2).

        Executes :meth:`training_plan`; ``workers > 1`` fans the grid
        cells out over a spawn-started pool with a bit-identical table.
        """
        l0_params = l0_params or L0Params()
        plan = cls.training_plan(
            spec, l0_params, l1_period, queue_levels, rate_levels, work_levels
        )
        table, _ = plan.execute(workers=workers)
        substeps = round(l1_period / l0_params.period)
        return cls(spec, table, substeps, l0_params)

    @staticmethod
    def _simulate_cell(
        controller: L0Controller,
        queue: float,
        rate: float,
        work: float,
        substeps: int,
    ) -> tuple[float, float]:
        """Roll the L0-controlled fluid model forward one T_L1 interval."""
        params = controller.params
        rates = np.full(params.horizon, rate)
        total_cost = 0.0
        q = float(queue)
        for _ in range(substeps):
            decision = controller.decide(q, rates, work)
            phi = float(controller.phis[decision.frequency_index])
            next_q, response, power = controller.model.predict(
                q, rate, work, phi, params.period
            )
            total_cost += float(controller.cost.evaluate(response, power))
            q = float(next_q)
        return total_cost, q

    def cost_and_next_queue(
        self, queue: float, rate: float, work: float
    ) -> tuple[float, float]:
        """Query the map: (interval cost, final queue)."""
        if rate > self._max_trained_rate:
            return self._saturated_rollout(queue, rate, work)
        key = tuple(
            _snap_index(grid, value)
            for grid, value in zip(self._grids, (queue, rate, work))
        )
        hit = self.table.exact_at(key)
        if hit is not None:
            return float(hit[0]), float(hit[1])
        cost, next_queue = self.table.query([queue, rate, work])
        return float(cost), float(next_queue)

    def cost_and_next_queue_many(
        self, queues, rates, work: float
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Batched :meth:`cost_and_next_queue` over parallel arrays.

        ``queues``/``rates`` are equal-length 1-D array-likes sharing one
        ``work`` estimate (the L1 hot path always queries at a single
        c-hat). Returns ``(costs, final_queues)`` float arrays whose
        entries equal the scalar query bit-for-bit: in-domain points
        quantize and gather through the public
        :meth:`LookupTableMap.exact_at_many`, saturated points take the
        vectorized closed-form rollout, and unpopulated cells fall back
        to the scalar nearest-neighbour query.
        """
        queues = np.asarray(queues, dtype=float)
        rates = np.asarray(rates, dtype=float)
        costs = np.empty(queues.shape)
        finals = np.empty(queues.shape)
        saturated = rates > self._max_trained_rate
        if saturated.any():
            costs[saturated], finals[saturated] = self._saturated_rollout_many(
                queues[saturated], rates[saturated], work
            )
        rows = np.flatnonzero(~saturated)
        if rows.size:
            points = np.empty((rows.size, 3))
            points[:, 0] = queues[rows]
            points[:, 1] = rates[rows]
            points[:, 2] = work
            keys = self.table.quantizer.snap_indices_many(points)
            values, populated = self.table.exact_at_many(keys)
            costs[rows] = values[:, 0]
            finals[rows] = values[:, 1]
            for t in np.flatnonzero(~populated):
                row = int(rows[t])
                cost, next_queue = self.table.query(
                    [float(queues[row]), float(rates[row]), work]
                )
                costs[row] = float(cost)
                finals[row] = float(next_queue)
        return costs, finals

    def _saturated_rollout_many(
        self, queues: np.ndarray, rates: np.ndarray, work: float
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Vector form of :meth:`_saturated_rollout` (same op order)."""
        params = self.l0_params
        speed = self.spec.effective_speed_factor
        capacity = speed / work * params.period
        power = self.spec.base_power + self.spec.power_scale  # phi = 1
        q = np.array(queues, dtype=float)
        total_cost = np.zeros(q.shape)
        for _ in range(self.substeps):
            q = np.maximum(0.0, q + rates * params.period - capacity)
            response = (1.0 + q) * work / speed
            slack = np.maximum(0.0, response - params.target_response)
            total_cost = total_cost + params.weights.tracking * slack
            total_cost = total_cost + params.weights.operating * power
        return total_cost, q

    def _saturated_rollout(
        self, queue: float, rate: float, work: float
    ) -> tuple[float, float]:
        """Closed-form overload cost: max frequency, fluid eqs. (5)-(7)."""
        params = self.l0_params
        speed = self.spec.effective_speed_factor
        capacity = speed / work * params.period
        power = self.spec.base_power + self.spec.power_scale  # phi = 1
        q = float(queue)
        total_cost = 0.0
        for _ in range(self.substeps):
            q = max(0.0, q + rate * params.period - capacity)
            response = (1.0 + q) * work / speed
            slack = max(0.0, response - params.target_response)
            total_cost += params.weights.tracking * slack
            total_cost += params.weights.operating * power
        return total_cost, q

    # ------------------------------------------------------------------
    # Serialisation (the cacheable trained artifact)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict artifact form; JSON-safe and loss-free.

        ``from_dict(to_dict(m))`` reproduces every stored float exactly,
        which is what makes a warm-cache run bit-identical to the cold
        run that trained the map.
        """
        return {
            "spec": self.spec.to_dict(),
            "table": self.table.to_dict(),
            "substeps": self.substeps,
            "l0_params": self.l0_params.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ComputerBehaviorMap":
        """Rebuild a trained map from :meth:`to_dict` output."""
        for key in ("spec", "table", "substeps", "l0_params"):
            if key not in payload:
                raise ConfigurationError(
                    f"behaviour-map payload needs a {key!r} key"
                )
        return cls(
            spec=ComputerSpec.from_dict(payload["spec"]),
            table=LookupTableMap.from_dict(payload["table"]),
            substeps=int(payload["substeps"]),
            l0_params=L0Params.from_dict(payload["l0_params"]),
        )


class L1Controller:
    """Module controller deciding alpha and gamma by bounded search."""

    def __init__(
        self,
        module_spec: ModuleSpec,
        behavior_maps: "list[ComputerBehaviorMap] | None" = None,
        params: L1Params | None = None,
        l0_params: L0Params | None = None,
    ) -> None:
        self.spec = module_spec
        self.params = params or L1Params()
        self.l0_params = l0_params or L0Params()
        if behavior_maps is None:
            behavior_maps = self._train_maps(module_spec, self.l0_params, self.params)
        if len(behavior_maps) != module_spec.size:
            raise ConfigurationError("need one behaviour map per computer")
        self.maps = behavior_maps
        self.stats = ControllerStats()
        self.predictor = WorkloadPredictor(band_window=self.params.band_window)
        self.work_filter = EwmaFilter(smoothing=0.1)
        #: Full-speed capacity (requests/s at c = 17.5 ms) per computer,
        #: used for proportional gamma seeds and candidate ordering.
        self.capacities = np.array(
            [c.effective_speed_factor / 0.0175 for c in module_spec.computers]
        )
        self._base_powers = [c.base_power for c in module_spec.computers]
        self._memo: dict[tuple, tuple[float, float]] = {}
        self._available = np.ones(module_spec.size, dtype=bool)
        #: Control-period kernel ("scalar" or "vector"); set by the engine
        #: from :class:`repro.sim.options.EngineOptions`. The vector path
        #: expands each lookahead node's map queries as one batched call
        #: and is bit-identical to the scalar enumeration.
        self.kernel = "scalar"

    @staticmethod
    def _train_maps(
        module_spec: ModuleSpec, l0_params: L0Params, params: L1Params
    ) -> "list[ComputerBehaviorMap]":
        """Obtain one map per computer, sharing across identical specs.

        Routed through the artifact layer: identical computers share one
        trained map (by content digest), and repeated controller
        constructions in one process reuse the process memo instead of
        retraining.
        """
        from repro.maps.provider import MapProvider

        return MapProvider().behavior_maps(module_spec, l0_params, params)

    # ------------------------------------------------------------------
    # Online estimation
    # ------------------------------------------------------------------
    def observe(self, arrival_count: float, measured_work: float | None) -> None:
        """Feed one T_L1 interval's module arrivals and processing time."""
        self.predictor.observe(float(arrival_count))
        if measured_work is not None and measured_work > 0:
            self.work_filter.observe(float(measured_work))

    @property
    def work_estimate(self) -> float:
        """Current c-hat for the module."""
        estimate = self.work_filter.estimate
        return estimate if estimate > 0 else 0.0175

    def act(
        self,
        queues: np.ndarray,
        alpha_current: np.ndarray,
        available: np.ndarray | None = None,
    ) -> L1Decision:
        """Decide using the internal predictor's forecasts and band."""
        rate_hat, rate_next, delta = self.set_points()
        return self.decide(
            queues,
            alpha_current,
            rate_hat=rate_hat,
            rate_next=rate_next,
            delta=delta,
            work=self.work_estimate,
            available=available,
        )

    def set_points(self) -> "tuple[float, float, float]":
        """``(rate_hat, rate_next, delta)`` from the internal predictor.

        The arrival-rate set-points :meth:`decide` takes when the module
        forecasts its own load; under L2 they come from the global
        forecast instead.
        """
        forecasts = self.predictor.forecast(2)
        delta = self.predictor.band.delta if self.params.use_uncertainty_band else 0.0
        return (
            forecasts[0] / self.params.period,
            forecasts[1] / self.params.period,
            delta / self.params.period,
        )

    # ------------------------------------------------------------------
    # The optimisation itself
    # ------------------------------------------------------------------
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
        """Bounded search over (alpha, gamma) candidates.

        ``rate_hat``/``rate_next`` are module arrival-rate forecasts
        (requests/s) for the two horizon periods; ``delta`` is the
        uncertainty half-width on ``rate_hat`` (0 disables band
        sampling); ``work`` is c-hat. ``available`` masks out failed
        machines — they can be neither kept on nor switched on.
        """
        queues = np.asarray(queues, dtype=float)
        alpha_current = np.asarray(alpha_current).astype(bool)
        m = self.spec.size
        if queues.shape != (m,) or alpha_current.shape != (m,):
            raise ConfigurationError("queues and alpha must have one entry per computer")
        if available is None:
            available = np.ones(m, dtype=bool)
        else:
            available = np.asarray(available).astype(bool)
            if available.shape != (m,):
                raise ConfigurationError("available mask must match module size")
            if not available.any():
                raise ControlError("no machine available to serve the module")
            alpha_current = alpha_current & available
        self._available = available
        started = time.perf_counter()
        explored = 0
        best_cost = float("inf")
        best_alpha: np.ndarray | None = None
        best_gamma: np.ndarray | None = None
        # Candidates re-query the same (computer, queue, rate, work) cells
        # over and over; memoise per decision.
        self._memo: dict[tuple, tuple[float, float]] = {}
        # The batched evaluator's per-group bookkeeping only pays off
        # once a module is wide enough to amortise the numpy dispatch;
        # narrow modules stay on the scalar loop (same bits either way).
        horizon_cost = (
            self._horizon_cost_vector
            if self.kernel == "vector" and m >= 16
            else self._horizon_cost
        )

        for alpha in self._candidate_alphas(alpha_current):
            serving_now = alpha & alpha_current  # available during [k, k+1)
            if not serving_now.any():
                continue
            context = self._alpha_context(alpha, alpha_current)
            for gamma in self._candidate_gammas(serving_now):
                cost, states = horizon_cost(
                    queues, context, gamma, rate_hat, rate_next, delta, work
                )
                explored += states
                if cost < best_cost:
                    best_cost = cost
                    best_alpha = alpha
                    best_gamma = gamma
        if best_alpha is None:
            raise ControlError("no admissible (alpha, gamma) candidate found")
        decision = L1Decision(
            alpha=best_alpha.astype(int),
            gamma=best_gamma,
            expected_cost=best_cost,
            states_explored=explored,
        )
        self.stats.record(explored, time.perf_counter() - started)
        return decision

    # ------------------------------------------------------------------
    # Candidate generation (the bounded neighbourhood)
    # ------------------------------------------------------------------
    def _candidate_alphas(self, alpha_current: np.ndarray) -> list[np.ndarray]:
        """Hamming-radius neighbourhood of the current configuration.

        Radius 1 (default) allows one machine flip per period; radius 2
        adds all pair flips (used when workloads surge faster than one
        machine per T_L1 can track).
        """
        m = alpha_current.size
        available = getattr(self, "_available", np.ones(m, dtype=bool))
        candidates = [alpha_current.copy()]
        flip_sets: list[tuple[int, ...]] = [(j,) for j in range(m)]
        if self.params.alpha_radius >= 2:
            flip_sets.extend(
                (i, j) for i in range(m) for j in range(i + 1, m)
            )
        for flips in flip_sets:
            candidate = alpha_current.copy()
            skip = False
            for j in flips:
                if not candidate[j] and not available[j]:
                    skip = True  # cannot switch on a failed machine
                    break
                candidate[j] = not candidate[j]
            if skip:
                continue
            if candidate.any():  # never turn the whole module off
                candidates.append(candidate)
        return candidates

    def _candidate_gammas(self, serving: np.ndarray) -> list[np.ndarray]:
        """Capacity-proportional seed plus its simplex neighbourhood."""
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
        return candidates

    # ------------------------------------------------------------------
    # Cost evaluation over the two-term horizon
    # ------------------------------------------------------------------
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
        gamma_next = quantize_to_simplex(
            np.where(alpha, self.capacities, 0.0), self.params.gamma_step
        )
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
        self,
        queues: np.ndarray,
        context: dict,
        gamma: np.ndarray,
        rate_hat: float,
        rate_next: float,
        delta: float,
        work: float,
    ) -> tuple[float, int]:
        """Expected cost of periods k and k+1 under a candidate.

        Returns (cost, states evaluated). Each sampled arrival rate is one
        predicted system state, matching the paper's exploration metric.
        """
        samples = three_point_band(rate_hat, delta) if delta > 0 else [rate_hat]
        states = 0
        total = context["fixed_cost"]
        weight = 1.0 / len(samples)
        next_queues = {j: 0.0 for j in context["serving_idx"]}
        for rate in samples:
            states += 1
            step_cost = 0.0
            for j in context["serving_idx"]:
                cost_j, next_q = self._query(j, queues[j], gamma[j] * rate, work)
                step_cost += cost_j
                next_queues[j] += next_q * weight
            for j in context["draining_idx"]:
                cost_j, _ = self._query(j, queues[j], 0.0, work)
                step_cost += cost_j
            total += step_cost * weight

        # Second horizon term: boots have completed; load re-allocated
        # capacity-proportionally over the candidate's on-set.
        gamma_next = context["gamma_next"]
        next_samples = three_point_band(rate_next, delta) if delta > 0 else [rate_next]
        next_weight = 1.0 / len(next_samples)
        for rate in next_samples:
            states += 1
            step_cost = 0.0
            for j in context["on_idx"]:
                start_queue = next_queues.get(j, 0.0)
                cost_j, _ = self._query(j, start_queue, gamma_next[j] * rate, work)
                step_cost += cost_j
            total += step_cost * next_weight
        return total, states

    def _horizon_cost_vector(
        self,
        queues: np.ndarray,
        context: dict,
        gamma: np.ndarray,
        rate_hat: float,
        rate_next: float,
        delta: float,
        work: float,
    ) -> tuple[float, int]:
        """Vector-kernel twin of :meth:`_horizon_cost`.

        Expands every map query of a lookahead node as one batched
        :meth:`ComputerBehaviorMap.cost_and_next_queue_many` call per
        (sample, computer-group) while accumulating the returned floats
        in the scalar path's exact order — including the per-decision
        memo's first-occurrence aliasing — so costs are bit-identical.
        """
        samples = three_point_band(rate_hat, delta) if delta > 0 else [rate_hat]
        states = 0
        total = context["fixed_cost"]
        weight = 1.0 / len(samples)
        serving_idx = context["serving_idx"]
        draining_idx = context["draining_idx"]
        next_queues = {j: 0.0 for j in serving_idx}
        for rate in samples:
            states += 1
            step_cost = 0.0
            hits = self._query_group(
                serving_idx, [queues[j] for j in serving_idx],
                [gamma[j] * rate for j in serving_idx], work,
            )
            for j, (cost_j, next_q) in zip(serving_idx, hits):
                step_cost += cost_j
                next_queues[j] += next_q * weight
            hits = self._query_group(
                draining_idx, [queues[j] for j in draining_idx],
                [0.0 for _ in draining_idx], work,
            )
            for cost_j, _ in hits:
                step_cost += cost_j
            total += step_cost * weight

        gamma_next = context["gamma_next"]
        on_idx = context["on_idx"]
        next_samples = three_point_band(rate_next, delta) if delta > 0 else [rate_next]
        next_weight = 1.0 / len(next_samples)
        for rate in next_samples:
            states += 1
            step_cost = 0.0
            hits = self._query_group(
                on_idx, [next_queues.get(j, 0.0) for j in on_idx],
                [gamma_next[j] * rate for j in on_idx], work,
            )
            for cost_j, _ in hits:
                step_cost += cost_j
            total += step_cost * next_weight
        return total, states

    def _query_group(
        self, js, group_queues, group_rates, work: float
    ) -> "list[tuple[float, float]]":
        """Memoised batched map lookup for one group of computers.

        Replicates the scalar :meth:`_query` semantics exactly: memo keys
        round the operating point, duplicate keys inside the group alias
        to the *first* occurrence's evaluation (as the scalar loop's
        insert-then-hit sequence does), and fresh keys are evaluated in
        group order through the batched map query.
        """
        results: "list[tuple[float, float] | None]" = [None] * len(js)
        work_key = round(work, 9)
        misses: "dict[tuple, tuple[int, float, float, list[int]]]" = {}
        for t, (j, queue, rate) in enumerate(zip(js, group_queues, group_rates)):
            key = (id(self.maps[j]), round(queue, 6), round(rate, 6), work_key)
            hit = self._memo.get(key)
            if hit is not None:
                results[t] = hit
                continue
            entry = misses.get(key)
            if entry is None:
                misses[key] = (j, queue, rate, [t])
            else:
                entry[3].append(t)
        if misses:
            by_map: "dict[int, list[tuple]]" = {}
            for key, (j, queue, rate, slots) in misses.items():
                by_map.setdefault(id(self.maps[j]), []).append(
                    (key, j, queue, rate, slots)
                )
            for items in by_map.values():
                behavior_map = self.maps[items[0][1]]
                if len(items) < 16:
                    # Small miss sets (the module-of-4 common case) are
                    # cheaper through the scalar query than through the
                    # batched call's fixed numpy dispatch; both return
                    # the same bits, so this is a speed choice only.
                    for key, _, queue, rate, slots in items:
                        hit = behavior_map.cost_and_next_queue(
                            queue, rate, work
                        )
                        self._memo[key] = hit
                        for t in slots:
                            results[t] = hit
                    continue
                costs, finals = behavior_map.cost_and_next_queue_many(
                    [item[2] for item in items],
                    [item[3] for item in items],
                    work,
                )
                for (key, _, _, _, slots), cost, final in zip(items, costs, finals):
                    hit = (float(cost), float(final))
                    self._memo[key] = hit
                    for t in slots:
                        results[t] = hit
        return results

    def _query(self, j: int, queue: float, rate: float, work: float) -> tuple[float, float]:
        """Memoised abstraction-map lookup for computer ``j``.

        Keyed by map identity rather than computer index: same-profile
        machines at the same operating point share one evaluation.
        """
        key = (id(self.maps[j]), round(queue, 6), round(rate, 6), round(work, 9))
        hit = self._memo.get(key)
        if hit is None:
            hit = self.maps[j].cost_and_next_queue(queue, rate, work)
            self._memo[key] = hit
        return hit

    def substep_count(self) -> int:
        """L0 periods per L1 period (the paper's l)."""
        return round(self.params.period / self.l0_params.period)
