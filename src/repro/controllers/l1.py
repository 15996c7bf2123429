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
  capacity-proportional allocation. The horizon cost is separable by
  computer, so each decision looks every computer's map up once per
  (gamma level, band sample) into share tables and adds each
  candidate's cost up from them (see :meth:`L1Controller.decide`).
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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.common.errors import ConfigurationError, ControlError
from repro.approximation.quantizer import GridQuantizer, nearest_level
from repro.approximation.table import LookupTableMap
from repro.cluster.specs import ComputerSpec, ModuleSpec
from repro.controllers.l0 import L0Controller
from repro.controllers.params import L0Params, L1Params
from repro.controllers.stats import ControllerStats
from repro.core.simplex import quantize_to_simplex, simplex_levels, simplex_neighbors
from repro.core.uncertainty import three_point_band


#: Cap on ``rows * max_settings ** (horizon + 1)`` for one map-training
#: call to ``L0BankKernel.decide_many``, which bounds the lookahead's
#: temporaries: 1.6e5 is a run's own 16-computer call on 10-setting
#: processors at horizon 3, so training needs no more than stepping.
_BANK_BLOCK_ELEMENTS = 160_000


def _l0_substep(
    bank, indices: np.ndarray, queues: np.ndarray, rates: np.ndarray, works: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """One T_L0 period of many L0-controlled computers, for map training.

    Row r is ``bank`` computer ``indices[r]`` with queue ``queues[r]``,
    a constant arrival rate ``rates[r]`` over its lookahead and c-hat
    ``works[r]``. The rows' lookaheads run as rows of
    ``bank.decide_many``, in blocks of at most
    :data:`_BANK_BLOCK_ELEMENTS`. Each chosen setting then goes through
    the computer's ``FluidServerModel.predict`` and
    ``SlackResponseCost.evaluate``, once per computer and work level
    (``predict`` takes one c). Returns each row's ``(cost, next
    queue)``, bit for bit what ``L0Controller.decide`` and those two
    calls give on one row at a time.
    """
    horizon = bank.horizon
    block = max(1, _BANK_BLOCK_ELEMENTS // bank.max_settings ** (horizon + 1))
    forecasts = np.repeat(rates[:, None], horizon, axis=1)
    settings = np.empty(indices.size, dtype=np.intp)
    for start in range(0, indices.size, block):
        rows = slice(start, start + block)
        decisions = bank.decide_many(
            indices[rows], queues[rows], forecasts[rows], works[rows]
        )
        settings[rows] = [decision.frequency_index for decision in decisions]
    costs = np.empty_like(queues)
    next_queues = np.empty_like(queues)
    for index in sorted(set(indices.tolist())):
        controller = bank.controllers[index]
        mine = indices == index
        for work in sorted(set(works[mine].tolist())):
            group = mine & (works == work)
            next_queue, response, power = controller.model.predict(
                queues[group],
                rates[group],
                work,
                controller.phis[settings[group]],
                bank.period,
            )
            costs[group] = controller.cost.evaluate(response, power)
            next_queues[group] = next_queue
    return costs, next_queues


def _behavior_training_grid(
    spec: ComputerSpec, l0_params: L0Params, substeps: int, points
) -> np.ndarray:
    """Every behaviour-map grid cell, run in lockstep for one T_L1.

    One L0 serves the whole grid: each of the ``substeps`` T_L0 periods
    advances every cell as a row of one :func:`_l0_substep`, and each
    cell's cost adds up in substep order. Returns ``(cost, final
    queue)`` per cell, in the order of ``points``.
    """
    from repro.sim.kernels import L0BankKernel

    bank = L0BankKernel([L0Controller(spec, l0_params)])
    grid = np.array(points, dtype=float)
    queues, rates, works = grid[:, 0], grid[:, 1], grid[:, 2]
    computers = np.zeros(len(grid), dtype=np.intp)
    totals = np.zeros(len(grid))
    for _ in range(substeps):
        costs, queues = _l0_substep(bank, computers, queues, rates, works)
        totals += costs
    return np.column_stack([totals, queues])


def _round_key(x) -> float:
    """``round(x, 6)`` for a memo key, with the rule ``x``'s type picks.

    A numpy scalar rounds by numpy's rule: scale by 1e6, round half to
    even, scale back. ``round(float(x) * 1e6) / 1e6`` is that rule bit
    for bit on the Python float, at a twentieth of the cost of
    ``round(np.float64(x), 6)``. A Python float keeps Python's
    correctly rounded ``round(x, 6)``. The two rules disagree on some
    values (269.7867145 gives 269.786714 under numpy's, 269.786715
    under Python's), and the disagreement would change which queries
    share a memo entry. ``x`` must be finite.
    """
    if type(x) is float:
        return round(x, 6)
    return round(float(x) * 1e6) / 1e6


def _round_keys(values: np.ndarray) -> list:
    """:func:`_round_key` of every element of a float array, as lists.

    The elements are numpy scalars, so numpy's rule applies: scale by
    1e6, round half to even, scale back.
    """
    return (np.rint(values * 1e6) / 1e6).tolist()


def _simplex_quanta(rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Integer quanta ``q`` of quantised gamma rows, ``levels[q] == rows``.

    ``levels`` is :func:`~repro.core.simplex.simplex_levels` of the
    rows' step. Raises :class:`ControlError` unless every row equals
    its levels bit for bit, which the share tables rely on.
    """
    quanta = np.rint(rows * (levels.size - 1)).astype(np.intp)
    if not np.array_equal(levels[quanta], rows):
        raise ControlError("gamma candidates are not on the quantised simplex levels")
    return quanta


def require_finite_inputs(**inputs) -> None:
    """Raise a one-line :class:`ControlError` for a NaN or infinite input.

    ``inputs`` maps each argument's name to a number or an array. A
    non-finite forecast, queue or processing time would otherwise flow
    into the cost maps and quietly pick an arbitrary decision.
    """
    for name, value in inputs.items():
        values = np.asarray(value, dtype=float)
        if np.isfinite(values).all():
            continue
        if values.ndim == 0:
            raise ControlError(f"{name} must be finite, got {float(values)!r}")
        index = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ControlError(
            f"{name}[{index}] must be finite, got {float(values[index])!r}"
        )


@dataclass(frozen=True)
class L1Decision:
    """Outcome of one L1 optimisation."""

    alpha: np.ndarray  # on/off per computer (1 = on)
    gamma: np.ndarray  # load fraction per computer, sums to 1
    expected_cost: float
    states_explored: int


class _Candidate(NamedTuple):
    """One (alpha, gamma) candidate and its share-table slots."""

    alpha: np.ndarray  # read-only on/off mask
    gamma: np.ndarray  # read-only load fractions
    fixed_cost: float  # W per boot plus the booting machines' idle power
    sums: int  # index of its per-sample first-term sums over serving computers
    first: "tuple[int, ...]"  # first-term slot per serving computer
    drains: "tuple[int, ...]"  # drain slot per computer switched off
    second: "tuple[int, ...]"  # second-term slot per computer on
    first_end: int  # first-term slots used up to this candidate
    drain_end: int
    second_end: int


class _Neighbourhood(NamedTuple):
    """The bounded search of one (alpha_current, available) mask.

    Candidates are in search order. Each slot names one table point:
    ``first_points`` hold ``(j, n)`` (computer, gamma quanta),
    ``drain_points`` a computer ``j`` and ``second_points`` hold
    ``(j, f, g)``: computer, the first-term slot its start queue comes
    from (-1 when it boots and starts empty) and its gamma_next quanta.
    """

    levels: np.ndarray  # simplex_levels(gamma_step)
    candidates: "tuple[_Candidate, ...]"
    first_points: "tuple[tuple[int, int], ...]"
    drain_points: "tuple[int, ...]"
    second_points: "tuple[tuple[int, int, int], ...]"


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
        if table.quantizer.dimensions != 3 or table.output_dim != 2:
            raise ConfigurationError(
                "a behaviour map's table maps (queue, rate, work) to "
                "(cost, final queue)"
            )
        self.spec = spec
        self.table = table
        self.substeps = substeps
        self.l0_params = l0_params or L0Params()
        self._levels = table.quantizer.levels
        self._max_trained_rate = self._levels[1][-1]

    @classmethod
    def train(
        cls,
        spec: ComputerSpec,
        l0_params: L0Params | None = None,
        l1_period: float = 120.0,
        queue_levels: np.ndarray | None = None,
        rate_levels: np.ndarray | None = None,
        work_levels: np.ndarray | None = None,
    ) -> "ComputerBehaviorMap":
        """Offline simulation-based learning of the map (§4.2).

        Each grid cell rolls the L0-controlled fluid model forward one
        T_L1 from its (queue, arrival rate, processing time), and every
        cell advances in lockstep: one batched L0 lookahead over the
        grid per T_L0 substep (see :func:`_behavior_training_grid`). The
        returned array becomes the table. The grid defaults cover queue
        lengths from empty to deep backlog, arrival rates from zero to
        140 % of the computer's full-speed capacity, and the virtual
        store's processing-time range.
        """
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
        outputs = _behavior_training_grid(
            spec, l0_params, substeps, list(quantizer.grid_points())
        )
        return cls(spec, LookupTableMap(quantizer, outputs), substeps, l0_params)

    def cost_and_next_queue(
        self, queue: float, rate: float, work: float
    ) -> tuple[float, float]:
        """Query the map: (interval cost, final queue)."""
        return self._cost_at(
            queue,
            self._queue_index(queue),
            rate,
            work,
            self._work_index(work),
        )

    def _queue_index(self, queue: float) -> int:
        """Index of the queue-grid level nearest ``queue``."""
        return nearest_level(self._levels[0], queue)

    def _work_index(self, work: float) -> int:
        """Index of the processing-time grid level nearest ``work``."""
        return nearest_level(self._levels[2], work)

    def _cost_at(
        self, queue: float, queue_index: int, rate: float, work: float, work_index: int
    ) -> tuple[float, float]:
        """:meth:`cost_and_next_queue` with the queue and work snapped.

        The L1 snaps each computer's queue and work once per decision
        and reuses the indices for every rate it asks about.
        """
        if rate > self._max_trained_rate:
            return self._saturated_rollout(queue, rate, work)
        return self.table.at(
            (queue_index, nearest_level(self._levels[1], rate), work_index)
        )

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
        #: Full-speed capacity (requests/s at c = 17.5 ms) per computer,
        #: used for proportional gamma seeds and candidate ordering.
        self.capacities = np.array(
            [c.effective_speed_factor / 0.0175 for c in module_spec.computers]
        )
        self._base_powers = [c.base_power for c in module_spec.computers]
        # The neighbourhood is a pure function of the (alpha_current,
        # available) masks (the capacities and params are fixed per
        # controller), cached read-only by the masks' bytes.
        self._plans: "dict[bytes, _Neighbourhood]" = {}

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

        The two-term horizon cost is separable by computer. In the
        first term computer j depends on a candidate only through its
        gamma quanta n and the band sample; in the second, through n
        (which fixes its start queue), its gamma_next quanta and the
        sample. So each such point is looked up in j's map once per
        decision, into a share table, and every candidate's cost is
        added up from the tables in the order of the per-candidate
        loop: sample by sample, serving then draining computers, the
        first term then the second.

        Map lookups are memoised per decision on ``(map, queue, rate,
        work)`` rounded to 6, 6 and 9 decimals (see :func:`_round_key`),
        so a point whose key aliases an earlier point's reuses that
        result. The tables are filled in the order the per-candidate
        loop first visits each point (candidate, then sample, then
        computer), so every key is first evaluated at the same point.
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
        require_finite_inputs(
            queues=queues,
            rate_hat=rate_hat,
            rate_next=rate_next,
            delta=delta,
            work=work,
        )
        started = time.perf_counter()
        mask = alpha_current.tobytes() + available.tobytes()
        plan = self._plans.get(mask)
        if plan is None:
            plan = self._plans[mask] = self._neighbourhood(alpha_current, available)
        if not plan.candidates:
            raise ControlError("no admissible (alpha, gamma) candidate found")
        samples = list(three_point_band(rate_hat, delta)) if delta > 0 else [rate_hat]
        next_samples = (
            list(three_point_band(rate_next, delta)) if delta > 0 else [rate_next]
        )
        best_cost, best = self._search(plan, queues, samples, next_samples, work)
        explored = len(plan.candidates) * (len(samples) + len(next_samples))
        decision = L1Decision(
            alpha=best.alpha.astype(int),
            gamma=best.gamma,
            expected_cost=best_cost,
            states_explored=explored,
        )
        self.stats.record(explored, time.perf_counter() - started)
        return decision

    def _search(
        self,
        plan: "_Neighbourhood",
        queues: np.ndarray,
        samples: list,
        next_samples: list,
        work: float,
    ) -> "tuple[float, _Candidate]":
        """The cheapest candidate of ``plan`` and its expected cost.

        Each candidate costs its fixed part, then the two horizon terms
        (periods k and k+1), each the mean over its band samples of the
        per-computer map costs. Period k loads the serving computers by
        gamma and drains the ones switched off; in period k+1 the boots
        have completed and the on-set shares the load by gamma_next,
        each serving computer starting from its mean period-k queue.
        Fills the share tables on first use, in the per-candidate
        loop's order (see :meth:`decide`).
        """
        maps = self.maps
        map_ids = [id(behavior_map) for behavior_map in maps]
        levels = plan.levels
        queue_list = list(queues)
        queue_keys = [_round_key(q) for q in queue_list]
        queue_index = [bm._queue_index(q) for bm, q in zip(maps, queue_list)]
        work_index = [bm._work_index(work) for bm in maps]
        work_key = round(work, 9)
        shares = np.multiply.outer(levels, samples)
        share_keys = _round_keys(shares)
        next_shares = np.multiply.outer(levels, next_samples)
        next_keys = _round_keys(next_shares)
        sample_range = range(len(samples))
        next_range = range(len(next_samples))
        weight = 1.0 / len(samples)
        next_weight = 1.0 / len(next_samples)
        memo: dict[tuple, tuple[float, float]] = {}

        def look_up(key, j, queue, queue_at, rate):
            """``key``'s memoised result; evaluated at this point on a miss.

            ``queue_at`` is ``queue``'s index on computer j's queue grid.
            """
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = maps[j]._cost_at(
                    queue, queue_at, rate, work, work_index[j]
                )
            return hit

        first_points = plan.first_points
        drain_points = plan.drain_points
        second_points = plan.second_points
        first_cost = [[0.0] * len(first_points) for _ in sample_range]
        first_next = [[0.0] * len(first_points) for _ in sample_range]
        starts: list = [0.0] * len(first_points)
        start_keys = [0.0] * len(first_points)
        start_index = [0] * len(first_points)
        drain_cost = [0.0] * len(drain_points)
        second_cost = [[0.0] * len(second_points) for _ in next_range]
        sums: "list[list[float]]" = []
        first_done = drain_done = second_done = 0

        best_cost = float("inf")
        best: "_Candidate | None" = None
        for candidate in plan.candidates:
            _, _, total, sums_index, first, drains, second = candidate[:7]
            first_end, drain_end, second_end = candidate[7:]
            # Fill the slots this candidate needs first, sample by
            # sample: serving computers, then draining ones.
            if first_end > first_done or drain_end > drain_done:
                for s in sample_range:
                    for slot in range(first_done, first_end):
                        j, n = first_points[slot]
                        first_cost[s][slot], first_next[s][slot] = look_up(
                            (map_ids[j], queue_keys[j], share_keys[n][s], work_key),
                            j, queue_list[j], queue_index[j], shares[n, s],
                        )
                    if s == 0:
                        for slot in range(drain_done, drain_end):
                            j = drain_points[slot]
                            drain_cost[slot] = look_up(
                                (map_ids[j], queue_keys[j], 0.0, work_key),
                                j, queue_list[j], queue_index[j], 0.0,
                            )[0]
                for slot in range(first_done, first_end):
                    start = 0.0
                    for s in sample_range:
                        start += first_next[s][slot] * weight
                    starts[slot] = start
                    start_keys[slot] = _round_key(start)
                    start_index[slot] = maps[first_points[slot][0]]._queue_index(start)
                first_done, drain_done = first_end, drain_end
            if second_end > second_done:
                for s in next_range:
                    for slot in range(second_done, second_end):
                        j, f, g = second_points[slot]
                        if f < 0:  # booting: it starts empty
                            start, start_key = 0.0, 0.0
                            index = maps[j]._queue_index(0.0)
                        else:
                            start, start_key, index = starts[f], start_keys[f], start_index[f]
                        second_cost[s][slot] = look_up(
                            (map_ids[j], start_key, next_keys[g][s], work_key),
                            j, start, index, next_shares[g, s],
                        )[0]
                second_done = second_end

            # Add the cost up in the per-candidate loop's order.
            if sums_index == len(sums):
                step_sums = []
                for s in sample_range:
                    costs = first_cost[s]
                    step = 0.0
                    for slot in first:
                        step += costs[slot]
                    step_sums.append(step)
                sums.append(step_sums)
            step_sums = sums[sums_index]
            for s in sample_range:
                step = step_sums[s]
                for slot in drains:
                    step += drain_cost[slot]
                total += step * weight
            for s in next_range:
                costs = second_cost[s]
                step = 0.0
                for slot in second:
                    step += costs[slot]
                total += step * next_weight
            if total < best_cost:
                best_cost = total
                best = candidate
        return best_cost, best

    # ------------------------------------------------------------------
    # The bounded neighbourhood
    # ------------------------------------------------------------------
    def _neighbourhood(
        self, alpha_current: np.ndarray, available: np.ndarray
    ) -> "_Neighbourhood":
        """Every (alpha, gamma) candidate in search order, with its table slots.

        An alpha with no computer serving now is skipped. The gamma
        candidates are shared by every alpha with the same serving set,
        and so are their per-sample first-term sums. Slots are numbered
        in the order the search first needs them, so a candidate's new
        slots are the range from the previous candidate's ends to its
        own.
        """
        step = self.params.gamma_step
        levels = simplex_levels(step)
        substeps = self.substep_count()
        alphas = [
            alpha
            for alpha in self._candidate_alphas(alpha_current, available)
            if (alpha & alpha_current).any()
        ]
        if not alphas:
            return _Neighbourhood(levels, (), (), (), ())
        # Period k+1 shares the load capacity-proportionally over the on-set.
        next_gammas = [
            quantize_to_simplex(np.where(alpha, self.capacities, 0.0), step)
            for alpha in alphas
        ]
        next_quanta = _simplex_quanta(np.array(next_gammas), levels).tolist()
        groups: "dict[tuple[int, ...], tuple[np.ndarray, list, int]]" = {}
        first_slots: "dict[tuple[int, int], int]" = {}
        drain_slots: "dict[int, int]" = {}
        second_slots: "dict[tuple[int, int, int], int]" = {}
        candidates: "list[_Candidate]" = []
        sums_count = 0
        current = alpha_current.tolist()
        for alpha, gamma_next in zip(alphas, next_quanta):
            alpha.setflags(write=False)
            on = alpha.tolist()
            on_idx = [j for j, is_on in enumerate(on) if is_on]
            serving_idx = [j for j in on_idx if current[j]]
            booting_idx = [j for j in on_idx if not current[j]]
            fixed = self.params.switching_weight * len(booting_idx)
            for j in booting_idx:
                fixed += self._base_powers[j] * substeps
            drains = tuple(
                drain_slots.setdefault(j, len(drain_slots))
                for j, was_on in enumerate(current)
                if was_on and not on[j]
            )
            group = groups.get(tuple(serving_idx))
            if group is None:
                gammas = np.array(self._candidate_gammas(alpha & alpha_current))
                quanta = _simplex_quanta(gammas, levels).tolist()
                gammas.setflags(write=False)
                group = groups[tuple(serving_idx)] = (gammas, quanta, sums_count)
                sums_count += len(quanta)
            gammas, quanta, sums_base = group
            # Per computer on: its position among the serving ones (-1
            # when it boots) and its gamma_next quanta.
            position = {j: p for p, j in enumerate(serving_idx)}
            layout = [(j, position.get(j, -1), gamma_next[j]) for j in on_idx]
            for i, gamma_quanta in enumerate(quanta):
                first = [
                    first_slots.setdefault((j, gamma_quanta[j]), len(first_slots))
                    for j in serving_idx
                ]
                second = [
                    second_slots.setdefault(
                        (j, first[p] if p >= 0 else -1, g), len(second_slots)
                    )
                    for j, p, g in layout
                ]
                candidates.append(
                    _Candidate(
                        alpha,
                        gammas[i],
                        fixed,
                        sums_base + i,
                        tuple(first),
                        drains,
                        tuple(second),
                        len(first_slots),
                        len(drain_slots),
                        len(second_slots),
                    )
                )
        return _Neighbourhood(
            levels,
            tuple(candidates),
            tuple(first_slots),
            tuple(drain_slots),
            tuple(second_slots),
        )

    def _candidate_alphas(
        self, alpha_current: np.ndarray, available: np.ndarray
    ) -> list[np.ndarray]:
        """Hamming-radius neighbourhood of the current configuration.

        Radius 1 (default) allows one machine flip per period; radius 2
        adds all pair flips (used when workloads surge faster than one
        machine per T_L1 can track). A failed machine is never switched
        on.
        """
        m = alpha_current.size
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

    def _candidate_gammas(self, serving: np.ndarray) -> "list[np.ndarray]":
        """Capacity-proportional seed plus its simplex neighbourhood."""
        weights = np.where(serving, self.capacities, 0.0)
        seed = quantize_to_simplex(weights, self.params.gamma_step)
        candidates = [seed]
        idle = ~serving
        if self.params.gamma_neighborhood_moves > 0:
            for neighbor in simplex_neighbors(
                seed, self.params.gamma_step, moves=self.params.gamma_neighborhood_moves
            ):
                # gamma may only load machines that are serving now.
                if (neighbor[idle] > 0).any():
                    continue
                candidates.append(neighbor)
                if len(candidates) >= self.params.max_gamma_candidates:
                    break
        return candidates

    def substep_count(self) -> int:
        """L0 periods per L1 period (the paper's l)."""
        return round(self.params.period / self.l0_params.period)
