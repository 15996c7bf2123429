"""The L2 controller: cluster-level load distribution (§5).

Every T_L2 (the L1's period, T_L1) the controller takes each module's
aggregate state (average queue length) with the run's global
arrival-rate forecast and processing-time estimate, and decides the
fraction gamma_i of arrivals to dispatch to each module, minimising
sum_i J~_i over the next two periods. It scores every vector of the
quantised gamma simplex (the paper's exhaustive search, §5).

A module's behaviour "includes complex and non-linear interaction between
its L0 and L1 controllers" that no closed-form model captures, so J~_i is
an approximation architecture obtained by simulation-based learning: the
full Fig. 2(b) control structure (L1 bounded search + L0 lookahead + the
fluid plant) is simulated over a grid of training inputs, the results
stored in a lookup table, and a compact CART regression tree trained from
that table — exactly the paper's pipeline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.common.errors import ConfigurationError
from repro.approximation.quantizer import GridQuantizer
from repro.approximation.regression_tree import RegressionTree, cell_table
from repro.cluster.specs import ModuleSpec
from repro.controllers.l0 import L0Controller
from repro.controllers.l1 import (
    ComputerBehaviorMap,
    L1Bank,
    L1Controller,
    _l0_substep,
    _sequential_sum,
    _simplex_quanta,
    require_valid_inputs,
)
from repro.controllers.params import L0Params, L1Params, L2Params
from repro.controllers.stats import ControllerStats
from repro.core.simplex import enumerate_simplex, quantize_to_simplex, simplex_levels


#: Depth and least leaf size of a module map's two regression trees.
#: Training code, not parameters: no digest hashes them, so a change must
#: bump :data:`~repro.maps.digest.MAPS_SCHEMA_VERSION`.
_TREE_DEPTH = 10
_TREE_MIN_LEAF = 2


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

    One L1 decides the whole grid in one :meth:`L1Bank.decide` pass, a
    row per cell. Each cell is a lane of its own, so the cells that
    share on/off masks share one plan and stack along the kernel's
    rows, one array query per horizon term. Then every T_L0 substep
    advances each (cell, computer) pair that serves, or that drains a
    queue above 1e-9, as a row of one :func:`_l0_substep`, computer by
    computer, and each cell's cost adds up in computer order (a booting
    machine adds its base power). Returns ``(cost, mean final queue)``
    per cell, in the order of ``points``.
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
    decisions = L1Bank([l1]).decide(
        [0] * len(grid), queues, alpha0, rates, rates, np.zeros(len(grid)), works,
        np.ones_like(alpha0),
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
        # Computer-major rows: each of the bank's blocks then holds one
        # setting count (see _l0_substep).
        active = (serving | (draining & (queues > 1e-9))).T
        computers, cells = np.nonzero(active)
        costs, queues.T[active] = _l0_substep(
            bank, computers, queues.T[active], local_rates.T[active], works[cells]
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
    ) -> None:
        self.spec = spec
        self.cost_tree = cost_tree
        self.queue_tree = queue_tree

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
    ) -> "ModuleCostMap":
        """Simulate the Fig. 2(b) structure over a training grid.

        Each grid cell plays one T_L2 interval: the L1 controller
        decides (alpha, gamma) for the cell's load, then the L0
        controllers and the fluid plant run the module's computers
        through the interval. One L1 decides every cell, and the cells'
        L0s advance in lockstep, one batched lookahead per T_L0 substep
        (see :func:`_module_training_grid`). The two regression trees
        are fitted on the grid's points and the returned array's two
        columns.
        """
        l1_params = l1_params or L1Params()
        l0_params = l0_params or L0Params()
        if behavior_maps is None:
            behavior_maps = L1Controller._train_maps(
                module_spec, l0_params, l1_params
            )
        points = list(
            cls.training_grid(
                module_spec, queue_levels, rate_levels, work_levels
            ).grid_points()
        )
        outputs = _module_training_grid(
            module_spec, list(behavior_maps), l1_params, l0_params, points
        )
        cost_tree, queue_tree = (
            RegressionTree(max_depth=_TREE_DEPTH, min_samples_leaf=_TREE_MIN_LEAF).fit(
                np.asarray(points, dtype=float), outputs[:, column]
            )
            for column in (0, 1)
        )
        return cls(module_spec, cost_tree, queue_tree)

    @staticmethod
    def training_grid(
        module_spec: ModuleSpec,
        queue_levels: np.ndarray | None = None,
        rate_levels: np.ndarray | None = None,
        work_levels: np.ndarray | None = None,
    ) -> GridQuantizer:
        """The (average queue, rate, processing time) training grid.

        A level set left ``None`` takes its default: six queue levels,
        16 rates from 0 to 1.2 times the module's top service rate, and
        two processing times.
        """
        if queue_levels is None:
            queue_levels = np.array([0.0, 5.0, 20.0, 80.0, 320.0, 1280.0])
        if rate_levels is None:
            max_rate = module_spec.max_service_rate(0.0175)
            rate_levels = np.linspace(0.0, 1.2 * max_rate, 16)
        if work_levels is None:
            work_levels = np.array([0.014, 0.021])
        return GridQuantizer([queue_levels, rate_levels, work_levels])

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
        """Plain-dict artifact form; JSON-safe and loss-free."""
        return {
            "spec": self.spec.to_dict(),
            "cost_tree": self.cost_tree.to_dict(),
            "queue_tree": self.queue_tree.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModuleCostMap":
        """Rebuild a trained map from :meth:`to_dict` output."""
        for key in ("spec", "cost_tree", "queue_tree"):
            if key not in payload:
                raise ConfigurationError(
                    f"module-map payload needs a {key!r} key"
                )
        return cls(
            spec=ModuleSpec.from_dict(payload["spec"]),
            cost_tree=RegressionTree.from_dict(payload["cost_tree"]),
            queue_tree=RegressionTree.from_dict(payload["queue_tree"]),
        )


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
        #: One machine's full-speed capacity per module, as a column: the
        #: reconfiguration term's unit of shifted load.
        self._machine_capacity = np.array(
            [[m.spec.max_service_rate(0.0175) / m.spec.size] for m in module_maps]
        )
        #: The last ``gamma_current`` seen: ``(bytes, quantised, candidate
        #: index, lifts)`` (see :meth:`_current`).
        self._memo: "tuple | None" = None

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

        Scores every vector of the quantised simplex: 286 for p = 4 at
        step 0.1 by default. The objective is separable: module i's two
        horizon terms depend on a candidate only through gamma_i, which
        takes one of k + 1 quantised levels. So each module's trees fill
        a share table of one entry per level and term, read from the
        controller's cell table (:attr:`_cells`): one ``searchsorted``
        per coordinate finds each point's cell, and one gather per term
        reads the period-k cost and next queue at the shares of
        ``rate_hat``, then the period-(k+1) cost at the next queue and
        the shares of ``rate_next``. Every candidate's cost is gathered
        from the share tables by its integer quanta, adding the terms in
        module order from 0.0. The quantised current allocation, its
        candidate and its reconfiguration lifts are kept for the last
        ``gamma_current``, which changes at few boundaries.

        Raises a one-line :class:`ControlError` for a NaN, infinite or
        negative queue, rate or ``gamma_current`` entry, or a work that
        is not above 0, and a :class:`ConfigurationError` for a
        ``queue_avgs`` or ``gamma_current`` whose shape is not ``(p,)``.
        """
        p = self.module_count
        queue_avgs = np.asarray(queue_avgs, dtype=float)
        if queue_avgs.shape != (p,):
            raise ConfigurationError(f"queue_avgs must have shape ({p},)")
        if gamma_current is not None:
            gamma_current = np.asarray(gamma_current, dtype=float)
            if gamma_current.shape != (p,):
                raise ConfigurationError(f"gamma_current must have shape ({p},)")
        queues = queue_avgs.tolist()
        rate_hat, rate_next, work = float(rate_hat), float(rate_next), float(work)
        if not (
            all(0.0 <= queue < math.inf for queue in queues)
            and 0.0 <= rate_hat < math.inf
            and 0.0 <= rate_next < math.inf
            and 0.0 < work < math.inf
        ):
            require_valid_inputs(
                queue_avgs=queue_avgs, rate_hat=rate_hat, rate_next=rate_next, work=work
            )
        started = time.perf_counter()
        candidates, levels, share_at, lift_at, _ = self._simplex
        modules, (queue_edges, rate_edges, work_edges), cost_cells, queue_cells = self._cells
        work_at = np.searchsorted(work_edges, work)
        now = (
            modules,
            np.searchsorted(queue_edges, queue_avgs)[:, None],
            np.searchsorted(rate_edges, levels * rate_hat),
            work_at,
        )
        next_queues = np.maximum(queue_cells[now], 0.0)
        after = (
            modules,
            np.searchsorted(queue_edges, next_queues),
            np.searchsorted(rate_edges, levels * rate_next),
            work_at,
        )
        # Module i's period-k costs, then its period-(k+1) costs: the
        # flat share tables' layout.
        tables = np.concatenate([cost_cells[now], cost_cells[after]], axis=1)
        costs = _sequential_sum(tables.ravel()[share_at].T)
        explored = 2 * len(candidates) * p
        current_quantized = current_index = None
        if gamma_current is not None:
            current_quantized, current_index, lifts = self._current(gamma_current)
            # Charge the boots a gamma increase forces: shifted load
            # divided by one machine's capacity, per module.
            shifted = (lifts * rate_hat / self._machine_capacity).ravel()[lift_at]
            costs += self.params.reconfiguration_weight * shifted.sum(axis=1)

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
        # Hysteresis: keep the current allocation unless the best
        # candidate is meaningfully better.
        if current_index is not None:
            current_cost = float(costs[current_index])
            if best_cost >= (1.0 - self.params.switching_threshold) * current_cost:
                best_gamma = current_quantized
                best_cost = current_cost
        decision = L2Decision(
            gamma=best_gamma,
            expected_cost=best_cost,
            states_explored=explored,
        )
        self.stats.record(explored, time.perf_counter() - started)
        return decision

    def _current(self, gamma: np.ndarray) -> tuple:
        """``(quantised, candidate index, lifts)`` of the allocation ``gamma``.

        ``gamma`` on the quantised simplex, the index of its candidate
        (named by its integer quanta), and the ``(p, k + 1)`` table of
        the lifts ``max(level - gamma_i, 0)`` that each module's share
        takes to each level. One entry is kept, keyed on ``gamma``'s
        bytes, so ``gamma`` is checked only when it changes; its arrays
        are read-only, since a held decision hands out the quantised one.
        """
        key = gamma.tobytes()
        if self._memo is None or self._memo[0] != key:
            if not all(0.0 <= share < math.inf for share in gamma.tolist()):
                require_valid_inputs(gamma_current=gamma)
            _, levels, _, _, index_of = self._simplex
            quantized = quantize_to_simplex(gamma, self.params.gamma_step)
            # Each share is its quanta times the step, so the quanta
            # round back exactly.
            k = len(levels) - 1
            index = index_of[tuple(round(share * k) for share in quantized.tolist())]
            lifts = np.clip(levels - gamma[:, None], 0.0, None)
            quantized.setflags(write=False)
            lifts.setflags(write=False)
            self._memo = (key, quantized, index, lifts)
        return self._memo[1:]

    @cached_property
    def _simplex(self) -> tuple:
        """The quantised simplex and the solve's gather indices, read-only.

        ``(candidates, levels, share_at, lift_at, index_of)``, enumerated
        on the first solve: the ``(n, p)`` candidates; the k + 1
        ``levels`` a share can take (``levels[quanta] == candidates``);
        each candidate's entry in the flat share tables, ``(2p, n)``,
        whose row 2i is module i's period-k term and row 2i + 1 its
        period-(k+1) term; its entry in the flat ``(p, k + 1)`` lift
        table, ``(n, p)``; and each candidate's index by its quanta (a
        tuple of ints).
        """
        step = self.params.gamma_step
        levels = simplex_levels(step)
        candidates = np.array(list(enumerate_simplex(self.module_count, step)))
        quanta = _simplex_quanta(candidates, levels)
        offsets = levels.size * np.arange(self.module_count)
        share_at = np.repeat((quanta + 2 * offsets).T, 2, axis=0)
        share_at[1::2] += levels.size
        lift_at = quanta + offsets
        for array in (candidates, levels, share_at, lift_at):
            array.setflags(write=False)
        index_of = {tuple(row): index for index, row in enumerate(quanta.tolist())}
        return candidates, levels, share_at, lift_at, index_of

    @cached_property
    def _cells(self) -> tuple:
        """The module maps' trees as one cell table, read-only.

        ``(modules, edges, cost_cells, queue_cells)``, built on the first
        solve by :func:`~repro.approximation.regression_tree.cell_table`
        over every module's cost and queue tree: the module indices as a
        column; the union of the trees' (queue, rate, work) thresholds;
        and each module's cost and final-queue predictions per cell,
        ``(p, Q + 1, R + 1, W + 1)`` each, for Q, R and W thresholds.
        """
        trees = [tree for m in self.maps for tree in (m.cost_tree, m.queue_tree)]
        edges, table = cell_table(trees)
        table = table.reshape(self.module_count, 2, *table.shape[1:])
        table.setflags(write=False)
        modules = np.arange(self.module_count)[:, None]
        return modules, edges, table[:, 0], table[:, 1]
