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
  candidate's cost up from them. Decisions that share a neighbourhood
  plan are scored together, each horizon term by one array query over
  the module's maps (see :meth:`L1Controller.decide_many`). A run
  decides every module of a boundary in one kernel pass
  (:class:`L1Bank`): the modules' plans, concatenated into one block
  plan over one map bank of all their computers, score as one row, and
  each module takes the first minimum of its own candidates.
* **Chattering mitigation** — every candidate is costed as the average of
  three arrival-rate samples ``lambda_hat - delta, lambda_hat,
  lambda_hat + delta`` (the forecast uncertainty band), plus the
  switch-on penalty W, so noise-driven on/off cycling is suppressed.

Boot dead time is honoured: a machine switched on at step k receives no
load and serves nothing during [k, k+1) (it costs base power plus W), and
contributes capacity from the *second* horizon term onward — turning a
machine on is only chosen when the forecast says the capacity will pay
for itself.

Every path gives the same bits as the per-candidate loop it replaced.
That loop lives on as the oracle in ``tests/controllers/test_l1.py``
(``_reference_decide``), checked against :meth:`L1Controller.decide_many`
on generated and recorded rows; ``TestBlockPass`` there checks each
row of a generated :class:`L1Bank` pass against its controller's
:meth:`~L1Controller.decide` on that row alone, and
``tests/sim/test_l1_pass.py`` checks whole runs, on both kernels and
with failures, against the pass replaced by one ``decide`` per module.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

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


class _Points(NamedTuple):
    """Per-point constants of an array query: each point's computer's map.

    Built once per map or plan by :meth:`_MapBank.points`, so a query
    gathers nothing per decision but the table cells.
    """

    computers: np.ndarray  # computer per point
    offsets: np.ndarray  # the map's first cell in the bank's table
    queue_strides: np.ndarray
    rate_strides: np.ndarray
    work_strides: np.ndarray
    max_rates: np.ndarray  # the map's top trained arrival rate


class _MapBank:
    """The behaviour maps of a list of computers, as arrays for queries.

    The distinct maps' tables are concatenated into one, and each
    computer's cells start at its map's offset, so one gather serves
    every computer whatever each map's grid shape. ``pairs`` holds, per
    dimension (queue, rate, work), each computer's level row padded with
    ``+inf``, which no finite value snaps to, as
    :func:`~repro.approximation.quantizer.level_pairs`: ``(2, m, width)``.
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
        self.pairs = []
        for dimension in range(3):
            rows = [behavior_map._levels[dimension] for behavior_map in maps]
            padded = np.full((len(maps), max(map(len, rows))), np.inf)
            for j, row in enumerate(rows):
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

    def points(self, computers) -> _Points:
        """The per-point constants of points on ``computers``."""
        computers = np.asarray(computers, dtype=np.intp)
        strides = self.strides[computers]
        return _Points(
            computers,
            self.offsets[computers],
            strides[:, 0],
            strides[:, 1],
            strides[:, 2],
            self.max_rates[computers],
        )

    def query(
        self,
        points: _Points,
        queues: np.ndarray,
        rates: np.ndarray,
        works: np.ndarray,
        queue_at: np.ndarray,
        rate_at: np.ndarray,
        work_at: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(interval cost, final queue)`` at every point.

        The arrays broadcast together, the last axis running over
        ``points``; ``queue_at``, ``rate_at`` and ``work_at`` are the
        coordinates' indices on each point's grid (see
        :func:`~repro.approximation.quantizer.nearest_level`). Each
        point's cell outputs are gathered from the table; a rate past
        the map's trained maximum takes the closed-form saturated
        rollout instead.
        """
        cells = (
            points.offsets
            + queue_at * points.queue_strides
            + rate_at * points.rate_strides
            + work_at * points.work_strides
        )
        outputs = self.table[cells]
        costs, finals = outputs[..., 0], outputs[..., 1]
        saturated = rates > points.max_rates
        if saturated.any():
            shape = saturated.shape
            computers = np.broadcast_to(points.computers, shape)[saturated]
            costs[saturated], finals[saturated] = self._saturated_rollout(
                computers,
                np.broadcast_to(queues, shape)[saturated],
                rates[saturated],
                np.broadcast_to(works, shape)[saturated],
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
        rollout's order. The inputs are finite, non-negative and ``works``
        positive (see :meth:`L1Controller.decide_many`), so no
        difference is NaN or ``-0.0`` and ``np.maximum(x, 0.0)`` is
        ``max(0.0, x)``.
        """
        speed, period, target, tracking, power_cost = self.rollout[computers].T
        capacity = speed / works * period
        arrivals = rates * period
        queue = queues
        total = np.zeros(queues.shape)
        for _ in range(self.substeps):
            queue = np.maximum(queue + arrivals - capacity, 0.0)
            response = (1.0 + queue) * works / speed
            total += tracking * np.maximum(response - target, 0.0)
            total += power_cost
        return total, queue


class _Neighbourhood(NamedTuple):
    """The bounded search of one (alpha_current, available) mask.

    Candidates are in search order; the first minimum of their totals
    wins. The first array query evaluates ``first`` at every band
    sample: the first-term points ``(j, n)`` (computer, gamma quanta)
    that some candidate serves, then one drain point per computer that
    some candidate switches off. The second evaluates ``second``: each
    ``(j, f, g)`` whose start queue is the mean final queue of first
    slot ``f`` (``first_count`` when it boots and starts empty) and
    whose gamma_next quanta is ``g``. The slot matrices are padded with
    the index of a zero column, which adds nothing.

    A block plan (:class:`L1Bank`) scores many modules' plans as one and
    has no ``alphas`` or ``gammas``: its members' plans keep them.
    """

    alphas: "np.ndarray | None"  # (candidates, m) read-only on/off masks
    gammas: "np.ndarray | None"  # (candidates, m) read-only load fractions
    fixed: np.ndarray  # W per boot plus the booting machines' idle power
    sums: np.ndarray  # each candidate's row of sum_slots
    sum_slots: np.ndarray  # first-term slots of serving computers, per sum row
    drain_slots: np.ndarray  # per candidate, drain points into ``first``
    second_slots: np.ndarray  # per candidate, second-term points
    first: _Points
    first_count: int  # first-term points; the drains follow them
    second: _Points
    second_starts: np.ndarray
    start_pairs: np.ndarray  # queue level pairs of each second-term point
    # Every point of ``first`` then ``second``: its term (0 or 1, the
    # band row its rates sample; 2 * member + term in a block), its
    # gamma level (0 for drains) and its map's rate level pairs, so one
    # snap serves both terms.
    terms: np.ndarray
    levels: np.ndarray
    rate_pairs: np.ndarray


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


def _bands(rates: np.ndarray, delta: np.ndarray, banded: bool) -> np.ndarray:
    """Each row's arrival-rate samples, ``(rows, 2, samples)``.

    ``rates`` is ``(2, rows)``: rate_hat, then rate_next. ``banded``
    takes the band's three samples around both rates, else the rates
    alone.
    """
    if banded:
        return three_point_band(rates, delta).transpose(2, 1, 0)
    return rates[:, :, None].transpose(1, 0, 2)


def _decision(
    plan: _Neighbourhood, choice: int, cost: float, states: int, name: str
) -> L1Decision:
    """Candidate ``choice`` of ``plan`` at total ``cost``.

    Raises a one-line :class:`ControlError` naming the total ``name``
    when it is not finite.
    """
    if not math.isfinite(cost):
        require_finite_inputs(**{name: cost})
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

    def cost_and_next_queue(self, queue, rate, work) -> "tuple[np.ndarray, np.ndarray]":
        """Query the map: ``(interval cost, final queue)``.

        Takes numbers or arrays, which broadcast together, and answers
        every point with one array query (0-d arrays for numbers).
        """
        bank, points = self._bank
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

    @cached_property
    def _bank(self) -> "tuple[_MapBank, _Points]":
        """This map alone as a bank, and its one computer's points."""
        bank = _MapBank([self])
        return bank, bank.points([0])

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

        :meth:`decide_many` on one row: the decision is a pure function
        of these inputs.
        """
        return self.decide_many(
            np.asarray(queues, dtype=float)[None],
            np.asarray(alpha_current)[None],
            [rate_hat],
            [rate_next],
            [delta],
            [work],
            None if available is None else np.asarray(available)[None],
        )[0]

    def decide_many(
        self,
        queues: np.ndarray,
        alpha_current: np.ndarray,
        rate_hat,
        rate_next,
        delta,
        work,
        available: np.ndarray | None = None,
    ) -> "list[L1Decision]":
        """:meth:`decide` for many rows at once, one decision per row.

        ``queues``, ``alpha_current`` and ``available`` are ``(rows, m)``;
        the set-points have one value per row. Rows that share a plan
        (their on/off and availability masks) and a band sample count
        are decided together, each term of their horizon cost by one
        array query over the module's maps (see :meth:`_totals`).

        The two-term horizon cost is separable by computer. In the
        first term computer j depends on a candidate only through its
        gamma quanta n and the band sample; in the second, through n
        (which fixes its start queue), its gamma_next quanta and the
        sample. So each such point is evaluated once per row, at its own
        inputs, and every candidate's total adds the points up in the
        per-candidate loop's order: sample by sample, serving then
        draining computers, the first term then the second. Ties go to
        the first candidate in search order.

        Raises a one-line :class:`ControlError` for a NaN, infinite or
        negative queue, rate or delta, a work that is not positive, or a
        row whose best total is not finite.
        """
        started = time.perf_counter()
        queues, alpha_current, available, set_points, quiet = self._inputs(
            queues, alpha_current, rate_hat, rate_next, delta, work, available
        )
        rows = len(queues)
        if not rows:
            return []
        delta, work = set_points[2:]
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            groups: "dict[bytes, list[int]]" = {}
            keys = np.concatenate([alpha_current, available, (delta > 0)[:, None]], axis=1)
            for row, key in enumerate(keys):
                groups.setdefault(key.tobytes(), []).append(row)
            decisions: "list[L1Decision]" = [None] * rows
            for key, members in groups.items():
                first = members[0]
                plan = self._plan(key[:-1], alpha_current[first], available[first])
                for start in range(0, len(members), _KERNEL_ROWS):
                    block = members[start : start + _KERNEL_ROWS]
                    # One group holds every row: index by a view, not a copy.
                    index = slice(start, start + len(block)) if len(groups) == 1 else block
                    bands = _bands(set_points[:2, index], delta[index], key[-1])
                    totals = self._totals(self._bank, plan, queues[index], bands, work[index])
                    states = len(plan.fixed) * 2 * bands.shape[2]
                    for row, choice, cost in zip(
                        block, totals.argmin(axis=1).tolist(), totals.min(axis=1).tolist()
                    ):
                        name = "expected_cost" if rows == 1 else f"expected_cost[{row}]"
                        decisions[row] = _decision(plan, choice, cost, states, name)
        share = (time.perf_counter() - started) / rows
        for decision in decisions:
            self.stats.record(decision.states_explored, share)
        return decisions

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
        starting from its mean period-k queue. Terms add in the
        per-candidate loop's order, column by column.
        """
        rows, _, width = bands.shape
        weight = 1.0 / width
        work = work[:, None, None]
        queue_pairs, _, work_pairs = bank.pairs
        queue_at = nearest_level(queue_pairs, queues)
        work_at = nearest_level(work_pairs, work[:, 0])
        rates = bands[:, plan.terms].transpose(0, 2, 1) * plan.levels
        first, second = plan.first, plan.second
        split = len(first.computers)
        rates[:, :, plan.first_count : split] = 0.0  # the drains
        rate_at = nearest_level(plan.rate_pairs, rates)

        # Period k: every first-term point at every sample, then drains.
        costs, finals = bank.query(
            first,
            queues[:, None, first.computers],
            rates[:, :, :split],
            work,
            queue_at[:, None, first.computers],
            rate_at[:, :, :split],
            work_at[:, None, first.computers],
        )
        # The mean final queue of each first-term slot, then 0.0 for the
        # machines that boot.
        shares = finals[:, :, : plan.first_count] * weight
        starts = np.zeros((rows, plan.first_count + 1))
        for s in range(width):
            starts[:, :-1] += shares[:, s]

        # Period k+1: every second-term point at every sample.
        start_queues = starts[:, None, plan.second_starts]
        second_costs, _ = bank.query(
            second,
            start_queues,
            rates[:, :, split:],
            work,
            nearest_level(plan.start_pairs, start_queues),
            rate_at[:, :, split:],
            work_at[:, None, second.computers],
        )

        zeros = np.zeros((rows, width, 1))
        padded = np.concatenate([costs, zeros], axis=2)
        steps = _sequential_sum(padded[:, :, plan.sum_slots])[:, :, plan.sums]
        if plan.drain_slots.size:
            drains = padded[:, 0, plan.drain_slots]
            for k in range(drains.shape[-1]):
                steps += drains[:, None, :, k]
        steps *= weight
        totals = plan.fixed + steps[:, 0]
        for s in range(1, width):
            totals += steps[:, s]
        padded = np.concatenate([second_costs, zeros], axis=2)
        steps = _sequential_sum(padded[:, :, plan.second_slots])
        steps *= weight
        for s in range(width):
            totals += steps[:, s]
        return totals

    def _inputs(
        self, queues, alpha_current, rate_hat, rate_next, delta, work, available
    ) -> tuple:
        """:meth:`decide_many`'s arguments as arrays, after every input check.

        Returns ``(queues, alpha_current, available, set_points,
        quiet)``: the masks are ``(rows, m)`` with failed machines off in
        ``alpha_current``, ``set_points`` stacks rate_hat, rate_next,
        delta and work as ``(4, rows)``, and ``quiet`` says the kernel
        runs with numpy's overflow warnings off (see
        :data:`_QUIET_ABOVE`).
        """
        queues = np.asarray(queues, dtype=float)
        alpha_current = np.asarray(alpha_current, dtype=bool)
        m = self.spec.size
        if queues.ndim != 2 or queues.shape[1] != m or alpha_current.shape != queues.shape:
            raise ConfigurationError("queues and alpha must have one entry per computer")
        rows = len(queues)
        if available is None:
            available = np.ones((rows, m), dtype=bool)
        else:
            available = np.asarray(available, dtype=bool)
            if available.shape != (rows, m):
                raise ConfigurationError("available mask must match module size")
            if not available.any(axis=1).all():
                raise ControlError("no machine available to serve the module")
            alpha_current = alpha_current & available
        try:
            set_points = np.array([rate_hat, rate_next, delta, work], dtype=float)
        except ValueError:  # ragged
            set_points = None
        if set_points is None or set_points.shape != (4, rows):
            raise ConfigurationError(
                "rate_hat, rate_next, delta and work need one value per row"
            )
        if not rows:
            return queues, alpha_current, available, set_points, False
        checked = np.concatenate([queues.ravel(), set_points.ravel()])
        top, least_work = checked.max(), set_points[3].min()
        if not (checked.min() >= 0.0 and top < np.inf and least_work > 0.0):
            # One row names its inputs as decide's arguments, many by row.
            names = ("queues", "rate_hat", "rate_next", "delta", "work")
            inputs = dict(zip(names, (queues, *set_points)))
            if rows == 1:
                inputs = {name: value[0] for name, value in inputs.items()}
            require_finite_inputs(**inputs)
            work = inputs.pop("work")
            _require(lambda v: v >= 0.0, "must be >= 0", inputs)
            _require(lambda v: v > 0.0, "must be > 0", {"work": work})
        quiet = top > _QUIET_ABOVE or least_work < 1.0 / _QUIET_ABOVE
        return queues, alpha_current, available, set_points, quiet

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
        sums.
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
        first_points = [j for j, _ in first_slots] + list(drain_slots)
        pad = len(first_points)
        second_points = list(second_slots)
        second_computers = [j for j, _, _ in second_points]
        queue_pairs, rate_pairs, _ = self._bank.pairs
        arrays = [
            np.array(candidate_alphas),
            np.array(candidate_gammas),
            np.array(fixed),
            np.array(sums, dtype=np.intp),
            _padded(sum_slots, pad),
            _padded(drains_of, len(drain_slots)) + first_count,
            _padded(seconds_of, len(second_points)),
        ]
        for array in arrays:
            array.setflags(write=False)
        return _Neighbourhood(
            *arrays,
            first=self._bank.points(first_points),
            first_count=first_count,
            second=self._bank.points(second_computers),
            second_starts=np.array(
                [f if f >= 0 else first_count for _, f, _ in second_points],
                dtype=np.intp,
            ),
            start_pairs=queue_pairs[:, second_computers],
            terms=np.repeat([0, 1], [pad, len(second_points)]),
            levels=np.concatenate(
                [
                    levels[[n for _, n in first_slots]],
                    np.zeros(len(drain_slots)),
                    levels[[g for _, _, g in second_points]],
                ]
            ),
            rate_pairs=rate_pairs[:, first_points + second_computers],
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


def _stacked(
    matrices: "list[np.ndarray]", remap: np.ndarray, bases: "list[int]", pad: int
) -> np.ndarray:
    """Members' index matrices, stacked into one block matrix.

    Member b's entry ``i`` becomes ``remap[bases[b] + i]``, and rows
    shorter than the widest member's are filled with ``pad``.
    """
    width = max(matrix.shape[1] for matrix in matrices)
    stacked = np.full((sum(map(len, matrices)), width), pad, dtype=np.intp)
    row = 0
    for matrix, base in zip(matrices, bases):
        stacked[row : row + len(matrix), : matrix.shape[1]] = remap[matrix + base]
        row += len(matrix)
    return stacked


class L1Bank:
    """A run's L1 controllers, decided in one kernel pass per boundary.

    Every module a boundary decides is one member of one *block plan*:
    the members' cached neighbourhood plans, concatenated over one map
    bank of all the controllers' computers, score as one row of one
    :meth:`L1Controller._totals` call, and each member takes the first
    minimum of its own candidates. Each point is still evaluated at its
    own inputs and each total still adds its columns in the plan's
    order, so every decision is bit for bit its controller's
    :meth:`~L1Controller.decide` on that row alone.

    The block lists every member's serving first-term points, then every
    member's drains, then every member's second-term points; a point's
    band row is ``2 * member + term``. The members' slot matrices move
    by the same offsets and are padded with the zero column's index, so
    a pad adds ``+0.0`` as a plan's own pads do. Modules whose delta is
    0 sample the band once, so they make a block of their own. A block
    of one module is its own plan over its controller's bank: a module
    run's pass builds nothing. Plans stay cached per controller; only
    the last block is kept, since a boundary's masks often repeat the
    last one's.
    """

    def __init__(self, controllers: "list[L1Controller]") -> None:
        self.controllers = list(controllers)
        sizes = [controller.spec.size for controller in self.controllers]
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
        work: float,
        available: "list[np.ndarray]",
    ) -> "list[L1Decision]":
        """One decision per row: row r decides controller ``modules[r]``.

        Row r's values, with the boundary's one c-hat ``work``, are that
        controller's :meth:`~L1Controller.decide` arguments, and its
        decision is that call's, bit for bit. The rows whose delta is
        above 0 make one block, and so do those whose delta is 0. Each
        row records one invocation on its controller's stats, at the
        pass's wall time divided by its rows. Raises ``decide``'s
        one-line errors, each led by the failing row's module.
        """
        started = time.perf_counter()
        if not modules:
            return []
        rows = []  # (module, mask, plan, (1, m) queues, (4,) set-points)
        groups: "dict[bool, list[int]]" = {}  # rows by band sampling
        quiet = False
        for r, module in enumerate(modules):
            controller = self.controllers[module]
            try:
                row_queues, alpha, mask, set_points, row_quiet = controller._inputs(
                    np.asarray(queues[r], dtype=float)[None],
                    np.asarray(alpha_current[r])[None],
                    [rate_hat[r]],
                    [rate_next[r]],
                    [delta[r]],
                    [work],
                    np.asarray(available[r])[None],
                )
                key = alpha.tobytes() + mask.tobytes()
                plan = controller._plan(key, alpha[0], mask[0])
            except (ConfigurationError, ControlError) as error:
                raise type(error)(f"module {module}: {error}") from None
            quiet = quiet or row_quiet
            rows.append((module, key, plan, row_queues, set_points[:, 0]))
            groups.setdefault(bool(set_points[2, 0] > 0), []).append(r)
        decisions: "list[L1Decision]" = [None] * len(rows)
        with np.errstate(over="ignore", invalid="ignore") if quiet else nullcontext():
            for banded, members in groups.items():
                set_points = np.array([rows[r][4] for r in members]).T
                if len(members) == 1:
                    module, _, plan, row_queues, _ = rows[members[0]]
                    bank, block = self.controllers[module]._bank, plan
                    bounds = [0, len(plan.fixed)]
                else:
                    bank = self._bank
                    block, bounds = self._block([rows[r][:3] for r in members])
                    row_queues = np.zeros((1, self._computers))
                    for r in members:
                        module, _, _, module_queues, _ = rows[r]
                        start = self._first_computer[module]
                        row_queues[:, start : start + module_queues.shape[1]] = module_queues
                bands = _bands(set_points[:2], set_points[2], banded)
                samples = bands.shape[2]
                bands = bands.reshape(1, -1, samples)
                totals = L1Controller._totals(bank, block, row_queues, bands, set_points[3, :1])[0]
                for b, r in enumerate(members):
                    module, _, plan, _, _ = rows[r]
                    candidates = totals[bounds[b] : bounds[b + 1]]
                    choice = int(candidates.argmin())
                    states = len(plan.fixed) * 2 * samples
                    try:
                        decisions[r] = _decision(
                            plan, choice, float(candidates[choice]), states, "expected_cost"
                        )
                    except ControlError as error:
                        raise ControlError(f"module {module}: {error}") from None
        share = (time.perf_counter() - started) / len(rows)
        for (module, *_), decision in zip(rows, decisions):
            self.controllers[module].stats.record(decision.states_explored, share)
        return decisions

    def _block(self, members: list) -> "tuple[_Neighbourhood, list[int]]":
        """The block plan of ``members`` and their candidate bounds.

        ``members`` are ``(module, mask, plan)``; member b's candidates
        are the block's ``bounds[b]:bounds[b + 1]``. The last block is
        reused while the members and their masks repeat.
        """
        key = [(module, mask) for module, mask, _ in members]
        if self._last is None or self._last[0] != key:
            block = self._build(
                [self._first_computer[module] for module, _, _ in members],
                [plan for _, _, plan in members],
            )
            self._last = (key, *block)
        return self._last[1:]

    def _build(
        self, offsets: "list[int]", plans: "list[_Neighbourhood]"
    ) -> "tuple[_Neighbourhood, list[int]]":
        """Concatenate ``plans``, whose computers start at ``offsets``."""
        serving = [plan.first_count for plan in plans]
        firsts = [len(plan.first.computers) for plan in plans]
        seconds = [len(plan.second.computers) for plan in plans]
        first_count, second_count = sum(serving), sum(seconds)
        pad = sum(firsts)  # the zero column after the first-term points
        # Per member, the block index of each of its point indices, then
        # of its zero column (``start_at``: of its first-term slots, then
        # of a boot's empty start queue), from the member's base on.
        first_at, start_at, second_at = [], [], []
        first_bases, start_bases, second_bases = [], [], []
        served = drained = seconded = 0
        for n, total, n2 in zip(serving, firsts, seconds):
            first_bases.append(len(first_at))
            start_bases.append(len(start_at))
            second_bases.append(len(second_at))
            drain = first_count + drained
            first_at += [*range(served, served + n), *range(drain, drain + total - n), pad]
            start_at += [*range(served, served + n), first_count]
            second_at += [*range(seconded, seconded + n2), second_count]
            served, drained, seconded = served + n, drained + total - n, seconded + n2
        first_at, start_at, second_at = (
            np.array(at, dtype=np.intp) for at in (first_at, start_at, second_at)
        )
        sum_bases = np.cumsum([0, *(len(plan.sum_slots) for plan in plans[:-1])])
        index = np.arange(len(plans))
        first_computers = np.concatenate(
            [plan.first.computers[:n] + o for plan, n, o in zip(plans, serving, offsets)]
            + [plan.first.computers[n:] + o for plan, n, o in zip(plans, serving, offsets)]
        )
        second_computers = np.concatenate(
            [plan.second.computers + o for plan, o in zip(plans, offsets)]
        )
        bank = self._bank
        queue_pairs, rate_pairs, _ = bank.pairs
        block = _Neighbourhood(
            alphas=None,
            gammas=None,
            fixed=np.concatenate([plan.fixed for plan in plans]),
            sums=np.concatenate([plan.sums + base for plan, base in zip(plans, sum_bases)]),
            sum_slots=_stacked([p.sum_slots for p in plans], first_at, first_bases, pad),
            drain_slots=_stacked([p.drain_slots for p in plans], first_at, first_bases, pad),
            second_slots=_stacked(
                [p.second_slots for p in plans], second_at, second_bases, second_count
            ),
            first=bank.points(first_computers),
            first_count=first_count,
            second=bank.points(second_computers),
            second_starts=start_at[
                np.concatenate(
                    [plan.second_starts + base for plan, base in zip(plans, start_bases)]
                )
            ],
            start_pairs=queue_pairs[:, second_computers],
            terms=np.concatenate(
                [
                    np.repeat(2 * index, serving),
                    np.repeat(2 * index, np.subtract(firsts, serving)),
                    np.repeat(2 * index + 1, seconds),
                ]
            ),
            levels=np.concatenate(
                [plan.levels[:n] for plan, n in zip(plans, serving)]
                + [plan.levels[n:f] for plan, n, f in zip(plans, serving, firsts)]
                + [plan.levels[f:] for plan, f in zip(plans, firsts)]
            ),
            rate_pairs=rate_pairs[:, np.concatenate([first_computers, second_computers])],
        )
        bounds = np.cumsum([0, *(len(plan.fixed) for plan in plans)]).tolist()
        return block, bounds
