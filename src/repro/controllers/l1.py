"""The L1 controller: module-level on/off and load-fraction decisions (§4.2).

Decides, every T_L1 = 2 minutes, the operating state ``alpha_j`` of each
computer in its module and the quantised load fractions ``gamma_j``,
minimising

    sum_{q=k}^{k+N} sum_j alpha_j(q) * J~(x(q), gamma_j(q)) + ||Delta alpha||_W

subject to sum_j gamma_j = 1 and alpha_j >= gamma_j, with N = N_L1 = 1
(:data:`L1_HORIZON`): the next period and the one after it. Three pieces
realise the paper's design:

* **Abstraction map** — :class:`ComputerBehaviorMap`, a hash table learned
  offline by simulating an L0-controlled computer over a quantised
  (queue, arrival-rate, processing-time) grid for one T_L1 interval. It
  answers "what will this computer (with its L0 controller) cost, and
  where will its queue end up, if I give it this much load".
* **Bounded search** — candidate on/off vectors are restricted to a
  Hamming-radius-1 neighbourhood of the current configuration, and
  gamma candidates to a quantised-simplex neighbourhood of the
  capacity-proportional allocation. The horizon cost is separable by
  computer, so a decision evaluates each (computer, gamma level, band
  sample) point it needs once, at its own inputs, and adds each
  candidate's cost up from them. Every decision goes through one entry
  point, :meth:`L1Bank.decide`, which takes any number of rows per
  controller: a run's boundary (one row per module), module-map
  training (one row per grid cell) and :meth:`L1Controller.decide` (one
  row). Modules decided together are concatenated into one block plan
  over one map bank of all their computers, which scores as one kernel
  row; blocks that repeat stack along the kernel's rows, each horizon
  term one array query; each row takes the first minimum of its own
  candidates.
* **Chattering mitigation** — every candidate is costed as the average of
  three arrival-rate samples ``lambda_hat - delta, lambda_hat,
  lambda_hat + delta`` (the forecast uncertainty band), plus the
  switch-on penalty W, so noise-driven on/off cycling is suppressed.

Boot dead time is honoured: a machine switched on at step k receives no
load and serves nothing during [k, k+1) (it costs base power plus W), and
contributes capacity from the *second* horizon term onward — turning a
machine on is only chosen when the forecast says the capacity will pay
for itself.

Every decision has the same bits as the per-candidate loop the kernel
replaced. That loop lives on as the oracle ``reference_l1_decide`` in
``tests/helpers.py``: ``tests/controllers/test_l1.py`` checks generated
passes (many controllers, many rows each) and every row of recorded
runs against it, row by row, and ``tests/sim/test_l1_pass.py`` checks
whole runs, on both kernels and with failures, against the pass
replaced by one oracle decision per module.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple, NoReturn

import numpy as np

from repro.common.errors import ConfigurationError, ControlError
from repro.approximation.quantizer import GridQuantizer, level_pairs, nearest_level
from repro.approximation.table import LookupTableMap
from repro.cluster.specs import ComputerSpec, ModuleSpec
from repro.controllers.l0 import L0Controller
from repro.controllers.params import L0Params, L1Params
from repro.controllers.stats import ControllerStats
from repro.core.simplex import quantize_to_simplex, simplex_levels, simplex_neighbors
from repro.core.uncertainty import three_point_band


#: N_L1: the periods the L1 costs past the next one (§4.2), so every
#: decision costs the next period and the one after it. Decision spans
#: report it as their ``lookahead``.
L1_HORIZON = 1

#: Inputs up to ``_QUIET_ABOVE``, with a work of at least its inverse,
#: keep every value the kernel computes (at most a product of two inputs
#: and the maps' constants, summed over a few hundred points) far below
#: the float maximum. A decision with a larger input, or a smaller work,
#: runs with numpy's overflow warnings off: an overflow there is an
#: infinite total, which fails in one line as a :class:`ControlError`.
_QUIET_ABOVE = 1e100

#: Rows one kernel call scores at most. Its array queries hold a few
#: ``(rows, samples, points, level pairs)`` temporaries; at 32 rows those
#: of a fig6 module-map grid stay near 0.3 MB each, so deciding a grid
#: does not raise a run's peak memory.
_KERNEL_ROWS = 32

#: Cap on ``rows * settings ** (horizon + 1)`` for one map-training
#: call to ``L0BankKernel.decide_many`` on rows of one setting count,
#: which bounds the lookahead's temporaries: 1.6e5 is a run's own
#: 16-computer call on 10-setting processors at horizon 3, so training
#: needs no more than stepping.
_BANK_BLOCK_ELEMENTS = 160_000


def _l0_substep(
    bank, indices: np.ndarray, queues: np.ndarray, rates: np.ndarray, works: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """One T_L0 period of many L0-controlled computers, for map training.

    Row r is ``bank`` computer ``indices[r]`` with queue ``queues[r]``,
    a constant arrival rate ``rates[r]`` over its lookahead and c-hat
    ``works[r]``; callers hand rows computer by computer. The rows'
    lookaheads run as rows of ``bank.decide_many``, in blocks of at most
    :data:`_BANK_BLOCK_ELEMENTS` that never mix setting counts, so the
    bank grows each block as one rectangle at its own count (a mixed
    block's ragged pass would hold more memory at training's block
    sizes). Each chosen setting then goes through
    the computer's ``FluidServerModel.predict`` and
    ``SlackResponseCost.evaluate``, once per computer and work level
    (``predict`` takes one c). Returns each row's ``(cost, next
    queue)``, bit for bit what ``L0Controller.decide`` and those two
    calls give on one row at a time.
    """
    horizon = bank.horizon
    forecasts = np.repeat(rates[:, None], horizon, axis=1)
    settings = np.empty(indices.size, dtype=np.intp)
    widths = np.array([c.phis.size for c in bank.controllers])[indices]
    edges = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), indices.size]
    for low, high in zip(edges, edges[1:]):
        block = max(1, _BANK_BLOCK_ELEMENTS // int(widths[low]) ** (horizon + 1))
        for start in range(low, high, block):
            rows = slice(start, min(start + block, high))
            settings[rows] = bank.decide_many(
                indices[rows], queues[rows], forecasts[rows], works[rows]
            )
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


def _simplex_quanta(rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Integer quanta ``q`` of quantised gamma rows, ``levels[q] == rows``.

    ``levels`` is :func:`~repro.core.simplex.simplex_levels` of the
    rows' step. Raises :class:`ControlError` unless every row equals
    its levels bit for bit, which the plans' point indices rely on.
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
    _require(np.isfinite, "must be finite", inputs)


def require_valid_inputs(**inputs) -> None:
    """Raise a one-line :class:`ControlError` for an input out of its domain.

    Every input must be finite, then every one but ``work`` must be
    ``>= 0``, then ``work`` (when given) must be ``> 0``; the first
    failing argument, in ``inputs`` order, is named. Callers check in
    plain floats or one array first and call this only to raise.
    """
    require_finite_inputs(**inputs)
    work = inputs.pop("work", None)
    _require(lambda v: v >= 0.0, "must be >= 0", inputs)
    if work is not None:
        _require(lambda v: v > 0.0, "must be > 0", {"work": work})


def _require(holds, requirement: str, inputs: dict) -> None:
    """Raise a one-line :class:`ControlError` where ``holds`` is false.

    Names the first failing argument, in ``inputs`` order, and its first
    failing element by index.
    """
    for name, value in inputs.items():
        values = np.asarray(value, dtype=float)
        ok = holds(values)
        if ok.all():
            continue
        if values.ndim == 0:
            raise ControlError(f"{name} {requirement}, got {float(values)!r}")
        index = np.unravel_index(int(np.argmin(ok)), values.shape)
        raise ControlError(
            f"{name}[{', '.join(map(str, index))}] {requirement}, "
            f"got {float(values[index])!r}"
        )


@dataclass(frozen=True)
class L1Decision:
    """Outcome of one L1 optimisation."""

    alpha: np.ndarray  # on/off per computer (1 = on)
    gamma: np.ndarray  # load fraction per computer, sums to 1
    expected_cost: float
    states_explored: int


class _MapBank:
    """The behaviour maps of a list of computers, as arrays for queries.

    The distinct maps' tables are concatenated into one, and each
    computer's cells start at its map's offset, so one gather serves
    every computer whatever each map's grid shape. ``pairs`` holds, per
    dimension (queue, rate, work), each computer's level row padded with
    ``+inf``, which no finite value snaps to, as
    :func:`~repro.approximation.quantizer.level_pairs`: ``(2, m,
    width)``, one ``width`` for all three, so that one snap serves
    coordinates of every dimension (see :meth:`points`).
    """

    def __init__(self, maps: "list[ComputerBehaviorMap]") -> None:
        if len({behavior_map.substeps for behavior_map in maps}) > 1:
            raise ConfigurationError(
                "a module's behaviour maps must cover one L1 interval "
                "(equal substeps)"
            )
        starts: "dict[int, int]" = {}
        tables = []
        for behavior_map in maps:
            if id(behavior_map) not in starts:
                starts[id(behavior_map)] = sum(len(table) for table in tables)
                tables.append(behavior_map.table.rows)
        self.table = np.concatenate(tables)
        self.offsets = np.array([starts[id(behavior_map)] for behavior_map in maps])
        width = max(len(row) for m in maps for row in m._levels)
        self.pairs = []
        for dimension in range(3):
            padded = np.full((len(maps), width), np.inf)
            for j, behavior_map in enumerate(maps):
                row = behavior_map._levels[dimension]
                padded[j, : len(row)] = row
            self.pairs.append(level_pairs(padded))
        self.strides = np.array([behavior_map.table.strides for behavior_map in maps])
        self.max_rates = np.array([m._max_trained_rate for m in maps])
        self.substeps = maps[0].substeps
        # Per computer, the saturated rollout's constants: speed, L0
        # period, response target, tracking weight and the operating
        # weight times full-speed power (base + scale at phi = 1).
        self.rollout = np.array(
            [
                (
                    m.spec.effective_speed_factor,
                    m.l0_params.period,
                    m.l0_params.target_response,
                    m.l0_params.weights.tracking,
                    m.l0_params.weights.operating
                    * (m.spec.base_power + m.spec.power_scale),
                )
                for m in maps
            ]
        )

    def points(self, computers: np.ndarray, split: int) -> dict:
        """The per-point fields of a plan whose points are on ``computers``.

        The points from ``split`` on are second-term points. Returns
        :class:`_Neighbourhood`'s ``computers``, ``rate_strides``,
        ``pairs`` (every computer's queue pairs, then its work pairs,
        then each point's rate pairs: the kernel's one snap),
        ``start_pairs`` and ``start_strides`` (the second-term points'
        queue pairs and strides).
        """
        queue_pairs, rate_pairs, work_pairs = self.pairs
        second = computers[split:]
        return {
            "computers": computers,
            "rate_strides": self.strides[computers, 1],
            "pairs": np.concatenate(
                [queue_pairs, work_pairs, rate_pairs[:, computers]], axis=1
            ),
            "start_pairs": queue_pairs[:, second],
            "start_strides": self.strides[second, 0],
        }

    def query(
        self,
        computers: np.ndarray,
        cells: np.ndarray,
        queues: np.ndarray,
        rates: np.ndarray,
        works: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(interval cost, final queue)`` at every point.

        ``cells`` and ``rates`` are ``(rows, samples, points)``: each
        point's cell in :attr:`table` and its arrival rate at each
        sample, the points on ``computers``; ``queues`` is ``(rows,
        points)`` and ``works`` ``(rows,)``. Each point's cell outputs
        are gathered from the table; a rate past the map's trained
        maximum takes the closed-form saturated rollout instead.
        """
        outputs = self.table[cells]
        costs, finals = outputs[..., 0], outputs[..., 1]
        saturated = rates > self.max_rates[computers]
        if saturated.any():
            at = np.nonzero(saturated)
            row, _, point = at
            costs[at], finals[at] = self._saturated_rollout(
                computers[point], queues[row, point], rates[at], works[row]
            )
        return costs, finals

    def _saturated_rollout(
        self,
        computers: np.ndarray,
        queues: np.ndarray,
        rates: np.ndarray,
        works: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Closed-form overload cost: max frequency, fluid eqs. (5)-(7).

        Every point takes each T_L0 substep's operations in the scalar
        rollout's order: the queues step through every substep first,
        then every substep is priced at once and the costs add up in
        substep order. The inputs are finite, non-negative and ``works``
        positive (see :meth:`L1Bank.decide`), so no difference is NaN
        or ``-0.0`` and ``np.maximum(x, 0.0)`` is ``max(0.0, x)``.
        """
        speed, period, target, tracking, power_cost = self.rollout[computers].T
        capacity = speed / works * period
        arrivals = rates * period
        queue = queues
        steps = np.empty((self.substeps, queues.size))
        for step in steps:
            queue = np.maximum(queue + arrivals - capacity, 0.0, out=step)
        slacks = tracking * np.maximum((1.0 + steps) * works / speed - target, 0.0)
        total = np.zeros(queues.shape)
        for slack in slacks:
            total += slack
            total += power_cost
        return total, queue


class _Neighbourhood(NamedTuple):
    """The bounded search of one (alpha_current, available) mask.

    Candidates are in search order; the first minimum of their totals
    wins. The points come in one list: the first-term points ``(j, n)``
    (computer, gamma quanta) that some candidate serves, then one drain
    point per computer that some candidate switches off (together the
    ``split`` first-term points), then every second-term point ``(j, f,
    g)``, whose start queue is the mean final queue of first-term point
    ``f`` (``first_count`` when it boots and starts empty) and whose
    gamma_next quanta is ``g``. The first array query evaluates the
    first-term points at every band sample, the second the second-term
    points. ``slots`` names, per candidate and term, the points whose
    costs that term adds up, padded with the index one past the last
    point, a zero column that adds nothing.

    A block plan (:class:`L1Bank`) scores many modules' plans as one and
    has no ``alphas`` or ``gammas``: its members' plans keep them.
    """

    alphas: "np.ndarray | None"  # (candidates, m) read-only on/off masks
    gammas: "np.ndarray | None"  # (candidates, m) read-only load fractions
    fixed: np.ndarray  # W per boot plus the booting machines' idle power
    # (candidates, 2, width): per candidate, the points of its period-k
    # term (its serving points, then its drains) and of its period-k+1
    # term.
    slots: np.ndarray
    first_count: int  # serving first-term points; the drains follow them
    split: int  # first-term points; the second-term points follow them
    second_starts: np.ndarray  # each second-term point's start slot
    # Every point's computer in the map bank, its term (0 or 1, the band
    # row its rates sample; 2 * member + term in a block), its gamma
    # level (0 for drains) and its map's rate stride.
    computers: np.ndarray
    terms: np.ndarray
    levels: np.ndarray
    rate_strides: np.ndarray
    # The kernel's one snap: every bank computer's queue pairs, then its
    # work pairs, then every point's rate pairs (see _MapBank.points).
    pairs: np.ndarray
    start_pairs: np.ndarray  # queue pairs of each second-term point
    start_strides: np.ndarray  # queue stride of each second-term point


def _padded(rows: "list[list[int]]", pad: int) -> np.ndarray:
    """Index lists as one matrix, short rows filled with ``pad``."""
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    width = int(lengths.max(initial=0))
    matrix = np.full((len(rows), width), pad, dtype=np.intp)
    matrix[np.arange(width) < lengths[:, None]] = list(chain.from_iterable(rows))
    return matrix


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis (one or more columns), one at a time.

    The per-candidate loop's order of addition, which began at 0.0:
    ``first + 0.0`` is ``0.0 + first``. ``np.sum`` would sum pairwise
    from 8 terms on and change the last bits.
    """
    total = terms[..., 0] + 0.0
    for k in range(1, terms.shape[-1]):
        total += terms[..., k]
    return total


def _decision(plan: _Neighbourhood, choice: int, cost: float, states: int) -> L1Decision:
    """Candidate ``choice`` of ``plan`` at total ``cost``.

    Raises a one-line :class:`ControlError` when the total is not finite.
    """
    if not math.isfinite(cost):
        require_finite_inputs(expected_cost=cost)
    return L1Decision(
        alpha=plan.alphas[choice].astype(int),
        gamma=plan.gammas[choice],
        expected_cost=cost,
        states_explored=states,
    )


class ComputerBehaviorMap:
    """The abstraction map g for one computer type.

    Maps ``(queue, arrival_rate, work)`` to ``(cost over one T_L1
    interval, final queue length)``, trained by simulating the computer's
    L0 controller over ``substeps`` periods of T_L0.

    Queries snap the queue, arrival rate and work to the grid's nearest
    levels. Queries beyond the trained arrival-rate domain are answered
    by a closed-form saturated-regime rollout (the L0 controller
    provably selects maximum frequency there), so deep overloads are
    costed correctly instead of being clamped to the grid edge.
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
        self._bank = _MapBank(behavior_maps)
        # The neighbourhood is a pure function of the (alpha_current,
        # available) masks (the capacities and params are fixed per
        # controller), cached read-only by the masks' bytes; None when
        # no candidate is admissible.
        self._plans: "dict[bytes, _Neighbourhood | None]" = {}

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

        A one-row pass of ``L1Bank([self])``: the decision is a pure
        function of these inputs, and the errors are the pass's.
        """
        if available is None:
            available = np.ones(self.spec.size, dtype=bool)
        (decision,) = L1Bank([self]).decide(
            [0], [queues], [alpha_current], [rate_hat], [rate_next], [delta], [work], [available]
        )
        return decision

    @staticmethod
    def _totals(
        bank: _MapBank,
        plan: _Neighbourhood,
        queues: np.ndarray,
        bands: np.ndarray,
        work: np.ndarray,
    ) -> np.ndarray:
        """Every candidate's expected cost, ``(rows, candidates)``.

        ``plan``'s points index ``bank``'s computers, and ``queues`` is
        ``(rows, computers)``. ``bands`` is ``(rows, terms, samples)``:
        each row's arrival-rate samples, one band row per horizon term a
        point names (two for a module's plan: periods k and k+1). Each
        candidate costs its fixed part, then the two horizon terms, each
        the mean over its band samples of the per-computer map costs.
        Period k loads the serving computers by gamma and drains the ones
        switched off; in period k+1 the boots have completed and the
        on-set shares the load by gamma_next, each serving computer
        starting from its mean period-k queue.

        One snap places every computer's queue and work and every
        point's rate on its map's grid, and each computer's cell at rate
        level 0 is its base: a point's cell is its computer's base plus
        its rate level's stride (a second-term point's base takes its
        start queue's level instead). Both terms' costs then fill one
        array with a zero column, and one gather and one sequential sum
        over :attr:`_Neighbourhood.slots` add every candidate's terms up
        in the per-candidate loop's order, column by column.
        """
        rows, _, width = bands.shape
        weight = 1.0 / width
        m, split, count = len(bank.offsets), plan.split, plan.first_count
        values = np.empty((rows, width, 2 * m + len(plan.computers)))
        values[:, :, :m] = queues[:, None]
        values[:, :, m : 2 * m] = work[:, None, None]
        rates = values[:, :, 2 * m :]
        np.multiply(bands[:, plan.terms].transpose(0, 2, 1), plan.levels, out=rates)
        rates[:, :, count:split] = 0.0  # the drains
        at = nearest_level(plan.pairs, values)
        queue_strides, _, work_strides = bank.strides.T
        unqueued = bank.offsets + at[:, 0, m : 2 * m] * work_strides
        bases = unqueued + at[:, 0, :m] * queue_strides
        rate_cells = at[:, :, 2 * m :] * plan.rate_strides
        costs = np.empty((rows, width, len(plan.computers) + 1))
        costs[:, :, -1] = 0.0

        # Period k: every first-term point at every sample, then drains.
        first = plan.computers[:split]
        costs[:, :, :split], finals = bank.query(
            first,
            bases[:, None, first] + rate_cells[:, :, :split],
            queues[:, first],
            rates[:, :, :split],
            work,
        )
        # The mean final queue of each serving first-term point, then 0.0
        # for the machines that boot.
        shares = finals[:, :, :count] * weight
        starts = np.zeros((rows, count + 1))
        for s in range(width):
            starts[:, :-1] += shares[:, s]

        # Period k+1: every second-term point at every sample.
        second = plan.computers[split:]
        start_queues = starts[:, plan.second_starts]
        start_cells = (
            unqueued[:, second]
            + nearest_level(plan.start_pairs, start_queues) * plan.start_strides
        )
        costs[:, :, split:-1], _ = bank.query(
            second,
            start_cells[:, None] + rate_cells[:, :, split:],
            start_queues,
            rates[:, :, split:],
            work,
        )

        steps = _sequential_sum(costs[:, :, plan.slots])
        steps *= weight
        totals = plan.fixed + steps[:, 0, :, 0]
        for s in range(1, width):
            totals += steps[:, s, :, 0]
        for s in range(width):
            totals += steps[:, s, :, 1]
        return totals

    def _plan(
        self, mask: bytes, alpha_current: np.ndarray, available: np.ndarray
    ) -> _Neighbourhood:
        """The neighbourhood plan of one row, cached by its ``mask``.

        ``mask`` is the bytes of ``alpha_current`` then ``available``.
        Raises :class:`ControlError` when no candidate is admissible.
        """
        if mask not in self._plans:
            self._plans[mask] = self._neighbourhood(alpha_current, available)
        plan = self._plans[mask]
        if plan is None:
            raise ControlError("no admissible (alpha, gamma) candidate found")
        return plan

    # ------------------------------------------------------------------
    # The bounded neighbourhood
    # ------------------------------------------------------------------
    def _neighbourhood(
        self, alpha_current: np.ndarray, available: np.ndarray
    ) -> "_Neighbourhood | None":
        """Every (alpha, gamma) candidate in search order, with its points.

        An alpha with no computer serving now is skipped; None when no
        candidate is left. The gamma candidates are shared by every
        alpha with the same serving set, and so are their first-term
        points.
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
            return None
        # Period k+1 shares the load capacity-proportionally over the on-set.
        next_gammas = [
            quantize_to_simplex(np.where(alpha, self.capacities, 0.0), step)
            for alpha in alphas
        ]
        next_quanta = _simplex_quanta(np.array(next_gammas), levels).tolist()
        groups: "dict[tuple[int, ...], tuple[np.ndarray, int]]" = {}
        first_slots: "dict[tuple[int, int], int]" = {}
        drain_slots: "dict[int, int]" = {}
        second_slots: "dict[tuple[int, int, int], int]" = {}
        sum_slots: "list[list[int]]" = []
        candidate_alphas, candidate_gammas, fixed, sums = [], [], [], []
        drains_of: "list[list[int]]" = []
        seconds_of: "list[list[int]]" = []
        current = alpha_current.tolist()
        for alpha, gamma_next in zip(alphas, next_quanta):
            on = alpha.tolist()
            on_idx = [j for j, is_on in enumerate(on) if is_on]
            serving_idx = [j for j in on_idx if current[j]]
            booting_idx = [j for j in on_idx if not current[j]]
            cost = self.params.switching_weight * len(booting_idx)
            for j in booting_idx:
                cost += self._base_powers[j] * substeps
            drains = [
                drain_slots.setdefault(j, len(drain_slots))
                for j, was_on in enumerate(current)
                if was_on and not on[j]
            ]
            group = groups.get(tuple(serving_idx))
            if group is None:
                gammas = np.array(self._candidate_gammas(alpha & alpha_current))
                group = groups[tuple(serving_idx)] = (gammas, len(sum_slots))
                for gamma_quanta in _simplex_quanta(gammas, levels).tolist():
                    sum_slots.append(
                        [
                            first_slots.setdefault(
                                (j, gamma_quanta[j]), len(first_slots)
                            )
                            for j in serving_idx
                        ]
                    )
            gammas, sums_base = group
            # Per computer on: its position among the serving ones (-1
            # when it boots) and its gamma_next quanta.
            position = {j: p for p, j in enumerate(serving_idx)}
            layout = [(j, position.get(j, -1), gamma_next[j]) for j in on_idx]
            for i, gamma in enumerate(gammas):
                first = sum_slots[sums_base + i]
                seconds_of.append(
                    [
                        second_slots.setdefault(
                            (j, first[p] if p >= 0 else -1, g), len(second_slots)
                        )
                        for j, p, g in layout
                    ]
                )
                candidate_alphas.append(alpha)
                candidate_gammas.append(gamma)
                fixed.append(cost)
                sums.append(sums_base + i)
                drains_of.append(drains)
        first_count = len(first_slots)
        split = first_count + len(drain_slots)
        second_points = list(second_slots)
        # Per candidate, its period-k points (serving, then drains) and
        # its period-k+1 points, padded with the zero column's index.
        term_slots = []
        for row, drains, seconds in zip(sums, drains_of, seconds_of):
            term_slots.append(sum_slots[row] + [first_count + d for d in drains])
            term_slots.append([split + k for k in seconds])
        arrays = [
            np.array(candidate_alphas),
            np.array(candidate_gammas),
            np.array(fixed),
            _padded(term_slots, split + len(second_points)).reshape(len(sums), 2, -1),
        ]
        for array in arrays:
            array.setflags(write=False)
        computers = np.array(
            [j for j, _ in first_slots] + list(drain_slots) + [j for j, _, _ in second_points],
            dtype=np.intp,
        )
        return _Neighbourhood(
            *arrays,
            first_count=first_count,
            split=split,
            second_starts=np.array(
                [f if f >= 0 else first_count for _, f, _ in second_points],
                dtype=np.intp,
            ),
            terms=np.repeat([0, 1], [split, len(second_points)]),
            levels=np.concatenate(
                [
                    levels[[n for _, n in first_slots]],
                    np.zeros(len(drain_slots)),
                    levels[[g for _, _, g in second_points]],
                ]
            ),
            **self._bank.points(computers, split),
        )

    @staticmethod
    def _candidate_alphas(
        alpha_current: np.ndarray, available: np.ndarray
    ) -> list[np.ndarray]:
        """Hamming-radius-1 neighbourhood of the current configuration.

        The current configuration, then each single-machine flip in
        computer order. A failed machine is never switched on, and the
        whole module is never switched off.
        """
        candidates = [alpha_current.copy()]
        for j in range(alpha_current.size):
            if not alpha_current[j] and not available[j]:
                continue  # cannot switch on a failed machine
            candidate = alpha_current.copy()
            candidate[j] = not candidate[j]
            if candidate.any():
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


def _stacked(matrices: "list[np.ndarray]", remaps: "list[np.ndarray]", pad: int) -> np.ndarray:
    """Members' index matrices, stacked into one block matrix.

    Member b's entry ``i`` becomes ``remaps[b][i]``, and rows shorter
    than the widest member's are filled with ``pad``.
    """
    width = max(matrix.shape[-1] for matrix in matrices)
    shape = (sum(map(len, matrices)), *matrices[0].shape[1:-1], width)
    stacked = np.full(shape, pad, dtype=np.intp)
    row = 0
    for matrix, remap in zip(matrices, remaps):
        stacked[row : row + len(matrix), ..., : matrix.shape[-1]] = remap[matrix]
        row += len(matrix)
    return stacked


class L1Bank:
    """L1 controllers decided together: every L1 decision's one entry point.

    A pass takes any number of rows per controller, each with its own
    inputs. A controller's t-th row joins *lane* t, so a run's boundary
    (one row per module) is one lane and module-map training (one
    controller, a row per grid cell) a lane per cell. A lane's rows that
    share a band flag (delta above 0 or not) and a work are the members
    of one *block plan*: the members' cached neighbourhood plans,
    concatenated over one map bank of all the controllers' computers,
    score as one row of :meth:`L1Controller._totals`. Blocks of the same
    members, masks and band flag stack along its rows, at most
    :data:`_KERNEL_ROWS` to a call. Each row takes the first minimum of
    its own candidates, ties going to the first in search order. Each
    point is still evaluated at its own inputs and each total still adds
    its columns in the plan's order, so every decision is bit for bit
    the one its row gets alone.

    The block lists every member's serving first-term points, then every
    member's drains, then every member's second-term points; a point's
    band row is ``2 * member + term``. The members' slot matrices move
    by the same offsets and are padded with the zero column's index, so
    a pad adds ``+0.0`` as a plan's own pads do. A block of one member
    is its own plan over its controller's bank: a module run's pass and
    map training build nothing. Plans stay cached per controller; only
    the last block of several members is kept, since a boundary's masks
    often repeat the last one's.
    """

    def __init__(self, controllers: "list[L1Controller]") -> None:
        self.controllers = list(controllers)
        sizes = [controller.spec.size for controller in self.controllers]
        self._sizes = sizes
        #: Each controller's first computer in :attr:`_bank`.
        self._first_computer = np.cumsum([0, *sizes[:-1]]).tolist()
        self._computers = sum(sizes)
        self._last: "tuple | None" = None  # (members' masks, block, bounds)

    @cached_property
    def _bank(self) -> _MapBank:
        """Every controller's behaviour maps, in module order, as one bank."""
        return _MapBank([m for controller in self.controllers for m in controller.maps])

    def decide(
        self,
        modules: "list[int]",
        queues: "list[np.ndarray]",
        alpha_current: "list[np.ndarray]",
        rate_hat: "list[float]",
        rate_next: "list[float]",
        delta: "list[float]",
        work: "list[float]",
        available: "list[np.ndarray]",
    ) -> "list[L1Decision]":
        """One decision per row: row r decides controller ``modules[r]``.

        Row r's values are that controller's :meth:`~L1Controller.decide`
        arguments, and its decision is that call's, bit for bit. Each row
        records one invocation on its controller's stats, at the pass's
        wall time divided by its rows. Raises the first failing row's
        one-line :class:`ControlError` (a NaN, infinite or negative queue,
        rate or delta, a work that is not positive, no machine available,
        no admissible candidate or a best total that is not finite) or
        :class:`ConfigurationError` (a shape), led by ``module i:`` when
        the bank holds several controllers.
        """
        started = time.perf_counter()
        if not len(modules):
            return []
        rows, quiet = self._rows(
            modules, queues, alpha_current, rate_hat, rate_next, delta, work, available
        )
        # A controller's t-th row joins lane t; a lane's rows of one band
        # flag and work make a block; blocks of the same members, masks
        # and band flag stack along the kernel's rows.
        lanes: "dict[int, int]" = {}
        blocks: "dict[tuple, list[int]]" = {}
        for r, (module, _, _, _, (_, _, row_delta, row_work)) in enumerate(rows):
            lane = lanes[module] = lanes.get(module, -1) + 1
            blocks.setdefault((lane, row_delta > 0, row_work), []).append(r)
        stacks: "dict[tuple, list[list[int]]]" = {}
        for (_, banded, _), members in blocks.items():
            stacks.setdefault((banded, tuple(rows[r][:2] for r in members)), []).append(members)
        outcomes: "list[tuple]" = [None] * len(rows)  # (choice, total, samples)
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            for (banded, key), stack in stacks.items():
                plans = [rows[r][2] for r in stack[0]]
                if len(key) == 1:
                    controller = self.controllers[key[0][0]]
                    bank, width, starts = controller._bank, controller.spec.size, [0]
                    block, bounds = plans[0], [0, len(plans[0].fixed)]
                else:
                    bank, width = self._bank, self._computers
                    block, bounds = self._block(key, plans)
                    starts = [self._first_computer[module] for module, _ in key]
                for low in range(0, len(stack), _KERNEL_ROWS):
                    chunk = stack[low : low + _KERNEL_ROWS]
                    points = [rows[r][4] for members in chunk for r in members]
                    # Each row's rate samples around rate_hat, then
                    # around rate_next: the band's three, or the rate.
                    if banded:
                        bands = np.array(
                            [
                                (three_point_band(now, delta), three_point_band(after, delta))
                                for now, after, delta, _ in points
                            ]
                        )
                    else:
                        bands = np.array([((now,), (after,)) for now, after, _, _ in points])
                    samples = bands.shape[2]
                    row_queues = np.zeros((len(chunk), width))
                    for k, members in enumerate(chunk):
                        for r, start in zip(members, starts):
                            row_queues[k, start : start + len(rows[r][3])] = rows[r][3]
                    totals = L1Controller._totals(
                        bank,
                        block,
                        row_queues,
                        bands.reshape(len(chunk), -1, samples),
                        np.array([work for _, _, _, work in points[:: len(key)]]),
                    )
                    for k, members in enumerate(chunk):
                        for r, first, last in zip(members, bounds, bounds[1:]):
                            candidates = totals[k, first:last]
                            choice = int(candidates.argmin())
                            outcomes[r] = (choice, float(candidates[choice]), samples)
        decisions = []
        for (module, _, plan, _, _), (choice, total, samples) in zip(rows, outcomes):
            try:
                decisions.append(_decision(plan, choice, total, len(plan.fixed) * 2 * samples))
            except ControlError as error:
                raise self._named(error, module) from None
        share = (time.perf_counter() - started) / len(rows)
        for (module, *_), decision in zip(rows, decisions):
            self.controllers[module].stats.record(decision.states_explored, share)
        return decisions

    def _rows(
        self, modules, queues, alpha_current, rate_hat, rate_next, delta, work, available
    ) -> "tuple[list[tuple], bool]":
        """:meth:`decide`'s rows after every input check, and ``quiet``.

        Row r is ``(module, mask, plan, queues, set-points)``, with its
        failed machines off in the mask's alpha and its rate_hat,
        rate_next, delta and work as a list of floats; ``quiet`` says the
        kernel runs with numpy's overflow warnings off (see
        :data:`_QUIET_ABOVE`). One check covers the pass's concatenated
        rows: each row's shapes, and every queue and set-point finite and
        non-negative and every work above 0; a row's key then shows a
        machine available in it. Only a pass that fails goes row by row,
        so the first failing row raises (:meth:`_raise_first_failure`).
        """
        sizes = [self._sizes[module] for module in modules]
        bounds = [0, *accumulate(sizes)]
        try:
            set_points = np.array([rate_hat, rate_next, delta, work], dtype=float)
            # One concatenation per input: a queue row joins the 1-D
            # set-points, and every mask row must have one dimension, so
            # a row's length is its shape.
            values = np.concatenate([*queues, set_points.ravel()], dtype=float)
            masks = np.concatenate(available, dtype=bool, casting="unsafe")
            alphas = np.concatenate(alpha_current, dtype=bool, casting="unsafe")
            passed = (
                set_points.shape == (4, len(modules))
                and masks.ndim == alphas.ndim == 1
                and all(
                    len(q) == len(a) == len(v) == m
                    for q, a, v, m in zip(queues, alpha_current, available, sizes, strict=True)
                )
            )
            if passed:
                # No NaN passes the first two tests, so the Python min
                # of the works is numpy's.
                top, least_work = values.max(), min(set_points[3].tolist())
                passed = values.min() >= 0.0 and top < np.inf and least_work > 0.0
        except (ValueError, TypeError):  # ragged, or a row without a length
            passed = False
        if not passed:
            self._raise_first_failure(
                modules, queues, alpha_current, rate_hat, rate_next, delta, work, available
            )
        alphas &= masks
        # A bool is one byte, 0 or 1, so row r's key is its slices of both
        # byte strings, and its machines are available when a 1 is there.
        alpha_bytes, mask_bytes = alphas.tobytes(), masks.tobytes()
        rows = []
        for module, start, end, points in zip(
            modules, bounds, bounds[1:], set_points.T.tolist()
        ):
            available_bytes = mask_bytes[start:end]
            if b"\x01" not in available_bytes:
                self._raise_first_failure(
                    modules, queues, alpha_current, rate_hat, rate_next, delta, work, available
                )
            key = alpha_bytes[start:end] + available_bytes
            controller = self.controllers[module]
            plan = controller._plans.get(key)
            if plan is None:
                try:
                    plan = controller._plan(key, alphas[start:end], masks[start:end])
                except ControlError as error:
                    raise self._named(error, module) from None
            rows.append((module, key, plan, values[start:end], points))
        quiet = top > _QUIET_ABOVE or least_work < 1.0 / _QUIET_ABOVE
        return rows, bool(quiet)

    def _raise_first_failure(self, modules, *columns) -> NoReturn:
        """Raise the one-line error of the first row that fails its checks.

        Row by row, in order: the queue and mask shapes, a machine
        available, one value per set-point, the values' domain (see
        :func:`require_valid_inputs`), then the row's plan. When every
        row passes, the arguments do not hold one value per row.
        """
        for r, module in enumerate(modules):
            try:
                queues, alpha, rate_hat, rate_next, delta, work, available = (
                    column[r] for column in columns
                )
            except (IndexError, TypeError):
                break
            controller = self.controllers[module]
            shape = (controller.spec.size,)
            try:
                queues = np.asarray(queues, dtype=float)
                alpha = np.asarray(alpha, dtype=bool)
                available = np.asarray(available, dtype=bool)
                if queues.shape != shape or alpha.shape != shape:
                    raise ConfigurationError("queues and alpha must have one entry per computer")
                if available.shape != shape:
                    raise ConfigurationError("available mask must match module size")
                if not available.any():
                    raise ControlError("no machine available to serve the module")
                if any(np.ndim(value) for value in (rate_hat, rate_next, delta, work)):
                    raise ConfigurationError(
                        "rate_hat, rate_next, delta and work need one value per row"
                    )
                require_valid_inputs(
                    queues=queues, rate_hat=rate_hat, rate_next=rate_next, delta=delta, work=work
                )
                alpha = alpha & available
                controller._plan(alpha.tobytes() + available.tobytes(), alpha, available)
            except (ConfigurationError, ControlError) as error:
                raise self._named(error, module) from None
        raise ConfigurationError("a pass's arguments need one value per row")

    def _named(self, error: Exception, module: int) -> Exception:
        """``error`` led by ``module i:`` when the bank holds several controllers."""
        if len(self.controllers) == 1:
            return error
        return type(error)(f"module {module}: {error}")

    def _block(
        self, key: tuple, plans: "list[_Neighbourhood]"
    ) -> "tuple[_Neighbourhood, list[int]]":
        """The block plan of the members ``key`` and their candidate bounds.

        ``key`` holds each member's ``(module, mask)`` and ``plans`` its
        plan; member b's candidates are the block's ``bounds[b]:bounds[b
        + 1]``. The last block is reused while the members and their
        masks repeat.
        """
        if self._last is None or self._last[0] != key:
            block = self._build([self._first_computer[module] for module, _ in key], plans)
            self._last = (key, *block)
        return self._last[1:]

    def _build(
        self, offsets: "list[int]", plans: "list[_Neighbourhood]"
    ) -> "tuple[_Neighbourhood, list[int]]":
        """Concatenate ``plans``, whose computers start at ``offsets``."""
        serving = [plan.first_count for plan in plans]
        splits = [plan.split for plan in plans]
        seconds = [len(plan.computers) - plan.split for plan in plans]
        first_count, split = sum(serving), sum(splits)
        zero = split + sum(seconds)  # the zero column after every point
        # Per member, the block index of each of its points, then of its
        # zero column (``start_at``: of its serving points, then of a
        # boot's empty start queue).
        point_at, start_at = [], []
        served = drained = seconded = 0
        for n, f, n2 in zip(serving, splits, seconds):
            drain, second = first_count + drained, split + seconded
            point_at.append(
                np.array(
                    [
                        *range(served, served + n),
                        *range(drain, drain + f - n),
                        *range(second, second + n2),
                        zero,
                    ],
                    dtype=np.intp,
                )
            )
            start_at.append(np.array([*range(served, served + n), first_count], dtype=np.intp))
            served, drained, seconded = served + n, drained + f - n, seconded + n2
        index = np.arange(len(plans))
        members = list(zip(plans, serving, splits, offsets))
        computers = np.concatenate(
            [plan.computers[:n] + o for plan, n, _, o in members]
            + [plan.computers[n:f] + o for plan, n, f, o in members]
            + [plan.computers[f:] + o for plan, _, f, o in members]
        )
        block = _Neighbourhood(
            alphas=None,
            gammas=None,
            fixed=np.concatenate([plan.fixed for plan in plans]),
            slots=_stacked([plan.slots for plan in plans], point_at, zero),
            first_count=first_count,
            split=split,
            second_starts=np.concatenate(
                [at[plan.second_starts] for at, plan in zip(start_at, plans)]
            ),
            terms=np.concatenate(
                [
                    np.repeat(2 * index, serving),
                    np.repeat(2 * index, np.subtract(splits, serving)),
                    np.repeat(2 * index + 1, seconds),
                ]
            ),
            levels=np.concatenate(
                [plan.levels[:n] for plan, n, _, _ in members]
                + [plan.levels[n:f] for plan, n, f, _ in members]
                + [plan.levels[f:] for plan, _, f, _ in members]
            ),
            **self._bank.points(computers, split),
        )
        bounds = np.cumsum([0, *(len(plan.fixed) for plan in plans)]).tolist()
        return block, bounds
