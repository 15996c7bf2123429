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
  computer, so a decision evaluates each (computer, gamma level, band
  sample) point it needs once, at its own inputs, and adds each
  candidate's cost up from them. Decisions that share a neighbourhood
  plan are scored together, each horizon term by one array query over
  the module's maps (see :meth:`L1Controller.decide_many`).
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

import math
import time
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
    """

    alphas: np.ndarray  # (candidates, m) read-only on/off masks
    gammas: np.ndarray  # (candidates, m) read-only load fractions
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
    # band row its rates sample), its gamma level (0 for drains) and
    # its map's rate level pairs, so one snap serves both terms.
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
            return []
        checked = np.concatenate([queues.ravel(), set_points.ravel()])
        if not (
            checked.min() >= 0.0 and checked.max() < np.inf and set_points[3].min() > 0.0
        ):
            # One row names its inputs as decide's arguments, many by row.
            names = ("queues", "rate_hat", "rate_next", "delta", "work")
            inputs = dict(zip(names, (queues, *set_points)))
            if rows == 1:
                inputs = {name: value[0] for name, value in inputs.items()}
            require_finite_inputs(**inputs)
            work = inputs.pop("work")
            _require(lambda v: v >= 0.0, "must be >= 0", inputs)
            _require(lambda v: v > 0.0, "must be > 0", {"work": work})
        rate_hat, rate_next, delta, work = set_points

        groups: "dict[bytes, list[int]]" = {}
        keys = np.concatenate([alpha_current, available, (delta > 0)[:, None]], axis=1)
        for row, key in enumerate(keys):
            groups.setdefault(key.tobytes(), []).append(row)
        decisions: "list[L1Decision]" = [None] * rows
        for key, members in groups.items():
            mask = key[: 2 * m]
            if mask not in self._plans:
                self._plans[mask] = self._neighbourhood(
                    alpha_current[members[0]], available[members[0]]
                )
            plan = self._plans[mask]
            if plan is None:
                raise ControlError("no admissible (alpha, gamma) candidate found")
            for start in range(0, len(members), _KERNEL_ROWS):
                block = members[start : start + _KERNEL_ROWS]
                # One group holds every row: index by a view, not a copy.
                index = slice(start, start + len(block)) if len(groups) == 1 else block
                if key[-1]:  # the band's three samples around both rates
                    bands = three_point_band(set_points[:2, index], delta[index])
                    bands = bands.transpose(2, 1, 0)
                else:
                    bands = set_points[:2, index, None].transpose(1, 0, 2)
                totals = self._totals(plan, queues[index], bands, work[index])
                states = len(plan.fixed) * 2 * bands.shape[2]
                for row, choice, cost in zip(
                    block, totals.argmin(axis=1).tolist(), totals.min(axis=1).tolist()
                ):
                    if not math.isfinite(cost):
                        name = "expected_cost" if rows == 1 else f"expected_cost[{row}]"
                        require_finite_inputs(**{name: cost})
                    decisions[row] = L1Decision(
                        alpha=plan.alphas[choice].astype(int),
                        gamma=plan.gammas[choice],
                        expected_cost=cost,
                        states_explored=states,
                    )
        share = (time.perf_counter() - started) / rows
        for decision in decisions:
            self.stats.record(decision.states_explored, share)
        return decisions

    def _totals(
        self,
        plan: _Neighbourhood,
        queues: np.ndarray,
        bands: np.ndarray,
        work: np.ndarray,
    ) -> np.ndarray:
        """Every candidate's expected cost, ``(rows, candidates)``.

        ``bands`` is ``(rows, 2, samples)``: each row's arrival-rate
        samples for periods k and k+1. Each candidate costs its fixed
        part, then the two horizon terms, each the mean over its band
        samples of the per-computer map costs. Period k loads the
        serving computers by gamma and drains the ones switched off; in
        period k+1 the boots have completed and the on-set shares the
        load by gamma_next, each serving computer starting from its
        mean period-k queue. Terms add in the per-candidate loop's
        order, column by column.
        """
        bank = self._bank
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
