"""The L2 controller: cluster-level load distribution (§5).

Every T_L2 the controller takes each module's aggregate state (average
queue length) with the run's global arrival-rate forecast and
processing-time estimate, and decides the fraction gamma_i of arrivals
to dispatch to each module, minimising sum_i J~_i over the horizon.

A module's behaviour "includes complex and non-linear interaction between
its L0 and L1 controllers" that no closed-form model captures, so J~_i is
an approximation architecture obtained by simulation-based learning: the
full Fig. 2(b) control structure (L1 bounded search + L0 lookahead + the
fluid plant) is simulated over a grid of training inputs, the results
stored in a lookup table, and a compact CART regression tree trained from
that table — exactly the paper's pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.training import TrainingSet, train_tree
from repro.approximation.regression_tree import RegressionTree
from repro.cluster.specs import ModuleSpec
from repro.controllers.l0 import L0Controller
from repro.controllers.l1 import (
    ComputerBehaviorMap,
    L1Controller,
    _l0_substep,
    _simplex_quanta,
    require_finite_inputs,
)
from repro.controllers.params import L0Params, L1Params, L2Params
from repro.controllers.stats import ControllerStats
from repro.core.simplex import (
    enumerate_simplex,
    quantize_to_simplex,
    simplex_levels,
    simplex_neighbors,
)


@dataclass(frozen=True)
class L2Decision:
    """Outcome of one L2 optimisation."""

    gamma: np.ndarray  # load fraction per module, sums to 1
    expected_cost: float
    states_explored: int


def _module_training_grid(
    module_spec: ModuleSpec,
    behavior_maps: "list[ComputerBehaviorMap]",
    l1_params: L1Params,
    l0_params: L0Params,
    points,
) -> np.ndarray:
    """Every module-cost-map grid cell, run in lockstep for one T_L2.

    One L1 decides the whole grid in one :meth:`L1Controller.decide_many`
    call, so the cells that share on/off masks share one plan and one
    array query per horizon term. Then every T_L0 substep advances each
    (cell, computer) pair that serves, or that drains a queue above
    1e-9, as a row of one :func:`_l0_substep`, and each cell's cost adds
    up in computer order (a booting machine adds its base power).
    Returns ``(cost, mean final queue)`` per cell, in the order of
    ``points``.
    """
    from repro.sim.kernels import L0BankKernel

    l1 = L1Controller(module_spec, behavior_maps, l1_params, l0_params)
    bank = L0BankKernel([L0Controller(c, l0_params) for c in module_spec.computers])
    grid = np.array(points, dtype=float)
    queue_avgs, rates, works = grid.T
    alpha0 = np.array(
        [ModuleCostMap._steady_alpha(module_spec, rate, work) for rate, work in grid[:, 1:]]
    )
    queues = np.where(alpha0, queue_avgs[:, None], 0.0)
    decisions = l1.decide_many(
        queues, alpha0, rates, rates, np.zeros(len(grid)), works
    )
    alpha = np.array([decision.alpha for decision in decisions], dtype=bool)
    gamma = np.array([decision.gamma for decision in decisions])
    serving = alpha & alpha0
    draining = ~alpha & alpha0
    booting = alpha & ~alpha0
    local_rates = np.where(serving, gamma * rates[:, None], 0.0)
    base_powers = [c.base_power for c in module_spec.computers]
    totals = l1.params.switching_weight * booting.sum(axis=1)
    for _ in range(l1.substep_count()):
        active = serving | (draining & (queues > 1e-9))
        cells, computers = np.nonzero(active)
        costs, queues[active] = _l0_substep(
            bank, computers, queues[active], local_rates[active], works[cells]
        )
        for j, base_power in enumerate(base_powers):
            pairs = computers == j
            totals[cells[pairs]] += costs[pairs]
            totals[booting[:, j]] += base_power
    return np.column_stack([totals, [row.mean() for row in queues]])


class ModuleCostMap:
    """The approximation architecture J~_i for one module.

    Two regression trees over (average queue, module arrival rate,
    processing time): one predicting the module's cost over a T_L2
    interval, one predicting its final average queue (the high-level
    dynamic map h needed for the second horizon term).
    """

    def __init__(
        self,
        spec: ModuleSpec,
        cost_tree: RegressionTree,
        queue_tree: RegressionTree,
        dataset: TrainingSet,
    ) -> None:
        self.spec = spec
        self.cost_tree = cost_tree
        self.queue_tree = queue_tree
        self.dataset = dataset

    @classmethod
    def train(
        cls,
        module_spec: ModuleSpec,
        behavior_maps: "list[ComputerBehaviorMap] | None" = None,
        l1_params: L1Params | None = None,
        l0_params: L0Params | None = None,
        queue_levels: np.ndarray | None = None,
        rate_levels: np.ndarray | None = None,
        work_levels: np.ndarray | None = None,
        tree_depth: int = 10,
    ) -> "ModuleCostMap":
        """Simulate the Fig. 2(b) structure over a training grid.

        Each grid cell plays one T_L2 interval: the L1 controller
        decides (alpha, gamma) for the cell's load, then the L0
        controllers and the fluid plant run the module's computers
        through the interval. One L1 decides every cell, and the cells'
        L0s advance in lockstep, one batched lookahead per T_L0 substep
        (see :func:`_module_training_grid`). The two regression trees
        are fitted on the grid's points and the returned array.
        """
        l1_params = l1_params or L1Params()
        l0_params = l0_params or L0Params()
        if behavior_maps is None:
            behavior_maps = L1Controller._train_maps(
                module_spec, l0_params, l1_params
            )
        max_rate = module_spec.max_service_rate(0.0175)
        if queue_levels is None:
            queue_levels = np.array([0.0, 5.0, 20.0, 80.0, 320.0, 1280.0])
        if rate_levels is None:
            rate_levels = np.linspace(0.0, 1.2 * max_rate, 16)
        if work_levels is None:
            work_levels = np.array([0.014, 0.021])
        points = list(
            GridQuantizer([queue_levels, rate_levels, work_levels]).grid_points()
        )
        outputs = _module_training_grid(
            module_spec, list(behavior_maps), l1_params, l0_params, points
        )
        dataset = TrainingSet(points, list(outputs))
        cost_tree = train_tree(dataset, target_column=0, max_depth=tree_depth)
        queue_tree = train_tree(dataset, target_column=1, max_depth=tree_depth)
        return cls(module_spec, cost_tree, queue_tree, dataset)

    @staticmethod
    def _steady_alpha(module_spec: ModuleSpec, rate: float, work: float) -> np.ndarray:
        """Minimal efficient machine set that covers ``rate`` at ~75 % load."""
        capacities = np.array(
            [c.effective_speed_factor / work for c in module_spec.computers]
        )
        peak_powers = np.array(
            [c.base_power + c.power_scale for c in module_spec.computers]
        )
        efficiency_order = np.argsort(-(capacities / peak_powers), kind="stable")
        alpha = np.zeros(module_spec.size, dtype=bool)
        covered = 0.0
        needed = rate / 0.75
        for j in efficiency_order:
            alpha[j] = True
            covered += capacities[j]
            if covered >= needed:
                break
        return alpha

    # ------------------------------------------------------------------
    # Serialisation (the cacheable trained artifact)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict artifact form; JSON-safe and loss-free.

        Carries the fitted trees *and* the raw training set, so a cached
        artifact can be re-fitted with different tree settings without
        re-simulating the grid.
        """
        return {
            "spec": self.spec.to_dict(),
            "cost_tree": self.cost_tree.to_dict(),
            "queue_tree": self.queue_tree.to_dict(),
            "dataset": self.dataset.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModuleCostMap":
        """Rebuild a trained map from :meth:`to_dict` output."""
        for key in ("spec", "cost_tree", "queue_tree", "dataset"):
            if key not in payload:
                raise ConfigurationError(
                    f"module-map payload needs a {key!r} key"
                )
        from repro.approximation.regression_tree import RegressionTree

        return cls(
            spec=ModuleSpec.from_dict(payload["spec"]),
            cost_tree=RegressionTree.from_dict(payload["cost_tree"]),
            queue_tree=RegressionTree.from_dict(payload["queue_tree"]),
            dataset=TrainingSet.from_dict(payload["dataset"]),
        )

    def cost(self, queue_avg: float, rate: float, work: float) -> float:
        """Predicted module cost for one interval."""
        return self.cost_tree.predict_one([queue_avg, rate, work])

    def next_queue(self, queue_avg: float, rate: float, work: float) -> float:
        """Predicted end-of-interval average queue."""
        return max(0.0, self.queue_tree.predict_one([queue_avg, rate, work]))


class L2Controller:
    """Cluster controller deciding module shares gamma_i."""

    def __init__(
        self,
        module_maps: list[ModuleCostMap],
        params: L2Params | None = None,
    ) -> None:
        if not module_maps:
            raise ConfigurationError("need at least one module map")
        self.maps = module_maps
        self.params = params or L2Params()
        self.stats = ControllerStats()
        self.capacities = np.array(
            [m.spec.max_service_rate(0.0175) for m in module_maps]
        )
        #: One machine's full-speed capacity per module: the reconfiguration
        #: term's unit of shifted load.
        self._machine_capacity = np.array(
            [m.spec.max_service_rate(0.0175) / m.spec.size for m in module_maps]
        )
        #: The exhaustive simplex as ``(candidates, quanta)``, enumerated
        #: on the first exhaustive solve.
        self._simplex: "tuple[np.ndarray, np.ndarray] | None" = None

    @property
    def module_count(self) -> int:
        """Number of modules p under control."""
        return len(self.maps)

    def decide(
        self,
        queue_avgs: np.ndarray,
        rate_hat: float,
        rate_next: float,
        work: float,
        gamma_current: np.ndarray | None = None,
    ) -> L2Decision:
        """Minimise sum_i J~_i over the quantised gamma simplex.

        Scores every candidate: all 286 vectors for p = 4 at step 0.1
        by default, or the bounded neighbourhood of ``gamma_current``
        when ``params.exhaustive`` is off. The objective is separable:
        module i's two horizon terms depend on a candidate only through
        gamma_i, which takes one of k + 1 quantised levels. So each
        module's trees are evaluated once per level (a share table) and
        every candidate's cost is gathered from the tables by its
        integer quanta, adding the terms in module order.
        """
        p = self.module_count
        queue_avgs = np.asarray(queue_avgs, dtype=float)
        if queue_avgs.shape != (p,):
            raise ConfigurationError(f"queue_avgs must have shape ({p},)")
        require_finite_inputs(
            queue_avgs=queue_avgs, rate_hat=rate_hat, rate_next=rate_next, work=work
        )
        started = time.perf_counter()
        candidates, quanta = self._candidate_table(gamma_current)
        current_quantized = (
            quantize_to_simplex(gamma_current, self.params.gamma_step)
            if gamma_current is not None
            else None
        )
        n = candidates.shape[0]
        levels = simplex_levels(self.params.gamma_step)
        shares_now = levels * rate_hat
        shares_next = levels * rate_next
        works = np.full(levels.size, work)
        costs = np.zeros(n)
        explored = 0
        for i, module_map in enumerate(self.maps):
            features_now = np.column_stack(
                [np.full(levels.size, queue_avgs[i]), shares_now, works]
            )
            cost_now = module_map.cost_tree.predict(features_now)
            next_queues = np.clip(
                module_map.queue_tree.predict(features_now), 0.0, None
            )
            cost_next = module_map.cost_tree.predict(
                np.column_stack([next_queues, shares_next, works])
            )
            costs += cost_now[quanta[:, i]]
            costs += cost_next[quanta[:, i]]
            explored += 2 * n
        if gamma_current is not None:
            # Charge the boots a gamma increase forces: shifted load
            # divided by one machine's capacity, per module.
            shifted = np.clip(candidates - gamma_current, 0.0, None) * rate_hat
            costs += self.params.reconfiguration_weight * (
                shifted / self._machine_capacity
            ).sum(axis=1)

        best_index = int(np.argmin(costs))
        best_cost = float(costs[best_index])
        best_gamma = candidates[best_index]
        # Among exact ties, prefer the candidate closest to the current
        # allocation (tree plateaus produce many ties).
        if gamma_current is not None:
            tied = np.flatnonzero(np.abs(costs - best_cost) <= 1e-12)
            if tied.size > 1:
                distances = np.abs(candidates[tied] - gamma_current).sum(axis=1)
                best_index = int(tied[np.argmin(distances)])
                best_gamma = candidates[best_index]
        current_cost: float | None = None
        if current_quantized is not None:
            matches = np.flatnonzero(
                np.all(np.abs(candidates - current_quantized) < 1e-9, axis=1)
            )
            if matches.size:
                current_cost = float(costs[matches[0]])
        # Hysteresis: keep the current allocation unless the best
        # candidate is meaningfully better.
        if (
            current_cost is not None
            and best_cost >= (1.0 - self.params.switching_threshold) * current_cost
        ):
            best_gamma = current_quantized
            best_cost = current_cost
        decision = L2Decision(
            gamma=best_gamma,
            expected_cost=best_cost,
            states_explored=explored,
        )
        self.stats.record(explored, time.perf_counter() - started)
        return decision

    def _candidate_table(
        self, gamma_current: np.ndarray | None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Candidate vectors and their integer quanta, both read-only.

        The exhaustive simplex is enumerated once per controller; the
        bounded neighbourhood is rebuilt around each ``gamma_current``.
        """
        if self.params.exhaustive or gamma_current is None:
            if self._simplex is None:
                self._simplex = self._share_table(
                    list(enumerate_simplex(self.module_count, self.params.gamma_step))
                )
            return self._simplex
        seed = quantize_to_simplex(gamma_current, self.params.gamma_step)
        candidates = [seed]
        candidates.extend(
            simplex_neighbors(seed, self.params.gamma_step, moves=2)
        )
        # Capacity-proportional fallback keeps the search from stalling in
        # a poor local minimum.
        candidates.append(
            quantize_to_simplex(self.capacities, self.params.gamma_step)
        )
        return self._share_table(candidates)

    def _share_table(
        self, rows: "list[np.ndarray]"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(candidates, quanta)`` with ``levels[quanta] == candidates``."""
        candidates = np.asarray(rows)
        quanta = _simplex_quanta(candidates, simplex_levels(self.params.gamma_step))
        candidates.setflags(write=False)
        quanta.setflags(write=False)
        return candidates, quanta
