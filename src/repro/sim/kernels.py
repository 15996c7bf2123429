"""The vector control-period kernel: batched numpy twins of the hot path.

The scalar kernel advances the plant with pure-Python per-computer loops —
one ``Computer.step_fluid`` call, one L0 ``decide``, one Kalman ``observe``
at a time — and stays in the tree as the reference, selected with
``EngineOptions(kernel="scalar")`` / ``ControlSpec.kernel`` / ``repro
run --kernel scalar``. This module provides batched implementations of
exactly those loops, which every run gets by default (``"vector"``):

* :class:`L0BankKernel` — one lookahead expansion for any set of L0
  controllers, pricing only the nodes each computer's own frequency set
  gives it: one ``(computers, paths, settings)`` array per depth when
  the selected computers share a setting count, else one flat array per
  depth with each computer's nodes end to end.
* :func:`batched_predictor_observe` — one manual-elementwise Kalman
  predict/update for a whole bank of :class:`WorkloadPredictor` objects
  (the per-module and global arrival filters), written back into the
  scalar filter objects so every downstream ``forecast`` is untouched.
* :class:`ClusterVectorExecutor` — the substep engine of both engines
  (a module run is one row): in hierarchy mode one
  :class:`L0BankKernel` call decides every serving computer of every
  module, then all modules' fluid updates, energy metering, and
  lifecycle ticks advance as ``(modules, computers)`` arrays, emitting
  the very same :class:`StepEvent` stream the scalar runners emit. The
  queue, power-state, boot and setting arrays it steps in place are the
  run's :class:`~repro.cluster.state.PlantState`, which the plant
  objects read and write too, so boundaries and faults, applied on the
  objects as on the scalar kernel, copy nothing in or out.

Parity is the design constraint, not an aspiration: every formula here
replicates the scalar expression's operand order elementwise (float
addition is not associative, so reductions that the scalar path performs
sequentially are performed in the same sequence here). The parity suite
(``tests/sim/test_kernel_parity.py``) pins scalar and vector runs to
exact ``==`` on every deterministic summary metric.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - environment guard
    raise ImportError(
        "the vector kernel requires numpy>=1.22 (a declared dependency in "
        "pyproject.toml). Install it, or select the pure-Python reference "
        "path with --kernel scalar / ControlSpec(kernel='scalar')."
    ) from exc


def _numpy_floor_check() -> None:
    """Fail fast (naming the fallback) on a numpy older than the floor."""
    floor = (1, 22)
    try:
        found = tuple(int(part) for part in np.__version__.split(".")[:2])
    except ValueError:  # pragma: no cover - dev/rc version strings
        return
    if found < floor:  # pragma: no cover - environment guard
        raise ImportError(
            f"the vector kernel requires numpy>={floor[0]}.{floor[1]}, "
            f"found {np.__version__}. Upgrade numpy, or select the "
            "pure-Python reference path with --kernel scalar / "
            "ControlSpec(kernel='scalar')."
        )


_numpy_floor_check()

from repro.common.errors import ConfigurationError, ControlError  # noqa: E402
from repro.common.validation import require_probability_vector  # noqa: E402
from repro.cluster.lifecycle import POWER_STATES  # noqa: E402
from repro.cluster.state import BOOTING, DRAINING, FAILED, OFF, ON  # noqa: E402
from repro.controllers.baselines import (  # noqa: E402
    AlwaysOnMaxController,
    BaselineDecision,
    ThresholdDvfsController,
    ThresholdOnOffController,
)
from repro.sim.observers import StepEvent  # noqa: E402

import math  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402


# ----------------------------------------------------------------------
# K2: the batched L0 bank
# ----------------------------------------------------------------------


class _RaggedLayout(NamedTuple):
    """Where the nodes of a mixed call's trees sit in its flat arrays.

    A function of the rows' setting counts alone (never of c-hat), so
    one layout serves every call whose rows have the same counts in the
    same order. At each depth the nodes of every row lie end to end, row
    by row, each row's in its scalar tree's order (first action major),
    so a parent's children are one contiguous run.
    """

    #: The call's widest setting count: the padded width of its leaves.
    width: int
    #: Per depth: each parent's child count, the parents being the rows
    #: at depth 0 and the previous depth's nodes after.
    fanouts: "tuple[np.ndarray, ...]"
    #: Per depth: each parent's row (``None`` at depth 0, row itself).
    parent_rows: "tuple[np.ndarray | None, ...]"
    #: Per depth: each node's flat index ``row * width + setting`` into
    #: the call's ``(rows, width)`` constants.
    settings_at: "tuple[np.ndarray, ...]"
    #: Each leaf's flat index into the call's padded ``(rows,
    #: width**horizon)`` leaf array.
    leaf_at: np.ndarray

    @classmethod
    def build(cls, counts: np.ndarray, horizon: int) -> "_RaggedLayout":
        """The layout of rows with setting counts ``counts``, in order."""
        width = int(counts.max())
        node_rows = np.arange(counts.size)
        positions = np.zeros(counts.size, dtype=np.intp)
        fanouts, parent_rows, settings_at = [], [], []
        for depth in range(horizon):
            fanout = counts[node_rows]
            starts = np.repeat(np.cumsum(fanout) - fanout, fanout)
            settings = np.arange(starts.size) - starts
            fanouts.append(fanout)
            parent_rows.append(node_rows if depth else None)
            node_rows = np.repeat(node_rows, fanout)
            settings_at.append(node_rows * width + settings)
            positions = np.repeat(positions, fanout) * width + settings
        leaf_at = node_rows * width**horizon + positions
        return cls(width, tuple(fanouts), tuple(parent_rows), tuple(settings_at), leaf_at)


class L0BankKernel:
    """Batched lookahead for a bank of L0 controllers (hierarchy mode).

    The scalar path calls ``L0Controller.decide`` once per serving
    computer per T_L0 step; each call expands its own ``(paths,
    settings)`` tree. This kernel expands the trees of any subset of the
    bank — one module's serving computers, or a whole cluster's — in one
    pass, and prices only the nodes each row owns:

    * rows that share one setting count S grow as one ``(computers,
      paths, S)`` array per depth, the scalar tree's own shape;
    * rows of mixed counts grow as one flat array per depth, each row's
      nodes end to end (:class:`_RaggedLayout`, kept for the last
      sequence of counts). The leaves then go into a ``(computers,
      width**horizon)`` array at the call's widest count, ``+inf`` where
      a narrower row has no path, so the first-minimum ``argmin`` picks
      each row's scalar winner (NaN and all-``inf`` rows included):
      base-``width`` digit strings keep the scalar enumeration order.

    Costs and queue trajectories are computed with the scalar
    expressions' operand order, so each computer's setting is its scalar
    ``decide``'s ``frequency_index``, and so is the per-controller
    ``stats`` bookkeeping (invocations, states explored). No run reads a
    row's expected cost, so the bank returns none.
    """

    def __init__(self, controllers: list) -> None:
        if not controllers:
            raise ConfigurationError("L0 bank kernel needs at least one controller")
        self.controllers = list(controllers)
        params = self.controllers[0].params
        self.horizon = params.horizon
        self.period = params.period
        self.margin = params.robustness_margin
        setting_counts = [c.phis.size for c in self.controllers]
        self.max_settings = max(setting_counts)
        self._setting_counts = np.array(setting_counts, dtype=np.intp)
        # Per-computer constants, padded to the widest processor. Pad
        # phi = 1.0 keeps every derived expression finite (no inf*0 NaN
        # risk); no lookahead node reads a pad.
        self._phis = np.ones((len(self.controllers), self.max_settings))
        for row, controller in enumerate(self.controllers):
            self._phis[row, : controller.phis.size] = controller.phis
        self._speeds = np.array(
            [c.model.speed_factor for c in self.controllers]
        )
        self._base_powers = np.array(
            [c.model.base_power for c in self.controllers]
        )
        self._power_scales = np.array(
            [c.model.power_scale for c in self.controllers]
        )
        #: States a scalar ``decide`` explores per controller:
        #: sum_{d=1..horizon} settings**d (the full tree, every depth).
        self._explored = [
            sum(count**d for d in range(1, self.horizon + 1))
            for count in setting_counts
        ]
        #: ``(key, width, layout, capacities, effective_service, powers)``
        #: of the last call; see :meth:`_lookahead_constants`.
        self._constants: "tuple | None" = None
        #: ``(counts bytes, layout)`` of the last mixed call.
        self._layout: "tuple | None" = None

    def decide_many(
        self,
        indices: "list[int] | np.ndarray",
        queues: "list[float] | np.ndarray",
        rate_forecasts: "list[np.ndarray] | np.ndarray",
        work_estimates: "list[float] | np.ndarray",
    ) -> np.ndarray:
        """Run the bank's lookahead for a subset of computers at once.

        ``indices`` selects controllers (bank positions); the parallel
        sequences (lists or arrays; ``rate_forecasts`` may be one
        ``(computers, horizon)`` array) carry each one's queue, per-depth
        arrival-rate forecasts, and c-hat. Returns each entry's chosen
        setting (its scalar ``decide``'s ``frequency_index``) as one
        array, and records each controller's stats exactly as its scalar
        ``decide`` would.
        """
        started = time.perf_counter()
        rates = np.asarray(rate_forecasts, dtype=float)
        if rates.ndim != 2 or rates.shape[1] < self.horizon:
            raise ConfigurationError(
                f"need {self.horizon} rate forecasts per computer, got "
                f"shape {rates.shape}"
            )
        works = np.asarray(work_estimates, dtype=float)
        if self.margin > 0:
            rates = rates * (1.0 + self.margin)
        rows = np.asarray(indices, dtype=np.intp)
        width, layout, capacities, effective_service, powers = (
            self._lookahead_constants(rows, works)
        )
        arrivals = np.maximum(rates[:, : self.horizon], 0.0) * self.period
        queues = np.asarray(queues, dtype=float)
        if layout is None:
            costs = self._expand(queues, arrivals, capacities, effective_service, powers)
        else:
            costs = self._expand_ragged(
                layout, queues, arrivals, capacities, effective_service, powers
            )
        settings = costs.argmin(axis=1) // width ** (self.horizon - 1)
        share = (time.perf_counter() - started) / rows.size
        controllers = self.controllers
        explored = self._explored
        for bank_index in rows.tolist():
            controllers[bank_index].stats.record(explored[bank_index], share)
        return settings

    def _expand(
        self, queues, arrivals, capacities, effective_service, powers
    ) -> np.ndarray:
        """Leaf costs ``(rows, S**horizon)`` of rows sharing S settings.

        The scalar lookahead's expressions, operand for operand; each
        depth's ``(rows, paths, S)`` temporaries are reused in place
        instead of reallocated per operation.
        """
        price = self.controllers[0].cost.evaluate_checked
        n = queues.size
        path_queues = queues[:, None]
        costs = np.zeros((n, 1))
        for depth in range(self.horizon):
            next_queues = (
                path_queues[:, :, None] + arrivals[:, depth, None, None]
            ) - capacities
            np.maximum(next_queues, 0.0, out=next_queues)
            step_costs = 1.0 + next_queues
            np.multiply(step_costs, effective_service, out=step_costs)
            price(step_costs, powers, out=step_costs)
            np.add(costs[:, :, None], step_costs, out=step_costs)
            costs = step_costs.reshape(n, -1)
            path_queues = next_queues.reshape(n, -1)
        return costs

    def _expand_ragged(
        self, layout, queues, arrivals, capacities, effective_service, powers
    ) -> np.ndarray:
        """Leaf costs ``(rows, width**horizon)`` of rows of mixed counts.

        The same expressions as :meth:`_expand` on each row's own nodes
        only (``capacities``, ``effective_service`` and ``powers`` hold
        each depth's node constants); the leaves go into their padded
        places, ``+inf`` elsewhere.
        """
        price = self.controllers[0].cost.evaluate_checked
        path_queues = queues
        costs = np.zeros(queues.size)
        for depth, (fanout, parents) in enumerate(
            zip(layout.fanouts, layout.parent_rows)
        ):
            depth_arrivals = arrivals[:, depth]
            if parents is not None:
                depth_arrivals = depth_arrivals[parents]
            next_queues = (path_queues + depth_arrivals).repeat(fanout)
            next_queues -= capacities[depth]
            np.maximum(next_queues, 0.0, out=next_queues)
            step_costs = 1.0 + next_queues
            np.multiply(step_costs, effective_service[depth], out=step_costs)
            price(step_costs, powers[depth], out=step_costs)
            np.add(costs.repeat(fanout), step_costs, out=step_costs)
            costs = step_costs
            path_queues = next_queues
        leaves = np.full((queues.size, layout.width**self.horizon), np.inf)
        leaves.ravel()[layout.leaf_at] = costs
        return leaves

    def _lookahead_constants(self, rows: np.ndarray, works: np.ndarray) -> tuple:
        """``(width, layout, capacities, effective_service, powers)``.

        The batched :meth:`L0Controller._lookahead_constants`: per row
        and setting, requests servable per period, seconds per request
        and power draw. For rows that share one setting count ``width``,
        ``layout`` is ``None`` and each constant is ``(rows, 1, width)``,
        to broadcast over the lookahead's paths; for mixed counts it is
        the rows' :class:`_RaggedLayout` and each constant a tuple of
        per-depth node arrays. They depend only on the selected rows and
        their c-hats, so they are rebuilt only when either differs from
        the previous call's. The c-hats are checked positive and the
        power array non-negative here, once, for every call that reuses
        them.
        """
        key = (rows.tobytes(), works.tobytes())
        constants = self._constants
        if constants is None or constants[0] != key:
            if not (works > 0).all():
                raise ConfigurationError("work_estimate must be positive")
            counts = self._setting_counts[rows]
            width = int(counts.max())
            layout = None if counts.min() == width else self._ragged_layout(counts)
            phis = self._phis[rows, :width]
            speeds = self._speeds[rows][:, None]
            work_column = works[:, None]
            # Same expressions as the scalar constants, batched.
            terms = (
                phis * speeds / work_column * self.period,
                work_column / (phis * speeds),
                self.controllers[0].cost.checked_power(
                    self._base_powers[rows][:, None]
                    + self._power_scales[rows][:, None] * phis**2
                ),
            )
            if layout is None:
                terms = tuple(term[:, None, :] for term in terms)
            else:
                flat = np.stack(terms).reshape(len(terms), -1)
                terms = tuple(zip(*(flat.take(at, axis=1) for at in layout.settings_at)))
            constants = self._constants = (key, width, layout, *terms)
        return constants[1:]

    def _ragged_layout(self, counts: np.ndarray) -> _RaggedLayout:
        """The :class:`_RaggedLayout` of ``counts``, kept for the next call."""
        key = counts.tobytes()
        if self._layout is None or self._layout[0] != key:
            self._layout = (key, _RaggedLayout.build(counts, self.horizon))
        return self._layout[1]


# ----------------------------------------------------------------------
# Batched Kalman observe for a bank of workload predictors
# ----------------------------------------------------------------------


def batched_predictor_observe(predictors: list, values: "list[float]") -> None:
    """One boundary's Kalman predict/update for a bank of predictors.

    Performs exactly what ``predictor.observe(value)`` performs for each
    (one-ahead forecast, uncertainty-band update, filter step), but with
    the 2-state local-linear-trend algebra expanded to explicit scalar
    formulas — the same IEEE-754 double operations in the same order as
    the matrix path, so the result is bit-identical —
    and the results written back into each filter object. Banks are a
    handful of 2-state filters, so plain Python floats beat numpy's
    per-call dispatch by an order of magnitude here. Any unprimed
    predictor drops the whole bank to the scalar loop (priming is a
    first-observation special case).
    """
    if any(not p._primed for p in predictors):
        for predictor, value in zip(predictors, values):
            predictor.observe(float(value))
        return
    for predictor, value in zip(predictors, values):
        kalman = predictor._filter
        z = float(value)
        s0 = float(kalman.state[0])
        s1 = float(kalman.state[1])
        cov = kalman.cov
        c00 = float(cov[0, 0])
        c01 = float(cov[0, 1])
        c10 = float(cov[1, 0])
        c11 = float(cov[1, 1])
        q = kalman.model.process_cov
        r_var = float(kalman.model.observation_cov[0, 0])

        # One-ahead forecast from the pre-step state (what the band
        # sees): F @ state once, read the level, clip at zero.
        ahead = s0 + s1
        if not ahead > 0.0:
            ahead = 0.0
        predictor._band.observe(z - ahead)

        # Predict: state = F @ state, cov = F @ cov @ F.T + Q, then
        # symmetrize exactly like the matrix path.
        s0 = s0 + s1
        p00 = c00 + c10 + (c01 + c11) + float(q[0, 0])
        p01 = c01 + c11 + float(q[0, 1])
        p10 = c10 + c11 + float(q[1, 0])
        p11 = c11 + float(q[1, 1])
        c00 = (p00 + p00) / 2.0
        c01 = (p01 + p10) / 2.0
        c10 = (p10 + p01) / 2.0
        c11 = (p11 + p11) / 2.0

        # Update (Joseph form); 1x1 innovation, so the inverse is a
        # reciprocal.
        predicted = s0
        innovation = z - predicted
        s_var = c00 + r_var
        inv_s = 1.0 / s_var
        g0 = c00 * inv_s
        g1 = c10 * inv_s
        s0 = s0 + g0 * innovation
        s1 = s1 + g1 * innovation
        f00 = 1.0 - g0
        f10 = -g1
        a00 = f00 * c00
        a01 = f00 * c01
        a10 = f10 * c00 + c10
        a11 = f10 * c01 + c11
        b00 = a00 * f00 + g0 * r_var * g0
        b01 = (a00 * f10 + a01) + g0 * r_var * g1
        b10 = a10 * f00 + g1 * r_var * g0
        b11 = (a10 * f10 + a11) + g1 * r_var * g1
        c00 = (b00 + b00) / 2.0
        c01 = (b01 + b10) / 2.0
        c10 = (b10 + b01) / 2.0
        c11 = (b11 + b11) / 2.0

        kalman.state = np.array([s0, s1])
        kalman.cov = np.array([[c00, c01], [c10, c11]])


# ----------------------------------------------------------------------
# K3: the substep executor (module and cluster runs)
# ----------------------------------------------------------------------

def _fast_probability_vector(gamma, size: int):
    """Scalar-Python accept path of :func:`require_probability_vector`.

    Returns the clamped vector (as a list) when ``gamma`` is a short
    list that passes the validator's checks, or ``None`` to defer to
    the full validator — which re-runs the same checks and raises the
    proper :class:`ConfigurationError`. The sequential Python sum
    matches numpy's sum for fewer than 8 elements, so accept/reject
    decisions are identical on this path. A NaN entry fails the sign
    test written as ``not value >= -1e-6`` (and an infinite one the sum
    test), so non-finite vectors always reach the validator.
    """
    if size >= 8:
        return None
    if type(gamma) is np.ndarray:
        if gamma.ndim != 1 or gamma.dtype != np.float64 or gamma.size != size:
            return None
        gamma = gamma.tolist()
    elif type(gamma) is not list or len(gamma) != size:
        return None
    total = 0.0
    for value in gamma:
        if not value >= -1e-6:
            return None
        total += value
    if abs(total - 1.0) > 1e-6:
        return None
    return [value if value > 0.0 else 0.0 for value in gamma]


class ClusterVectorExecutor:
    """Batched substep engine for a module or cluster run (both modes).

    Every T_L0 step advances all modules' computers as one ``(modules,
    max_computers)`` array per quantity — gamma split, fluid queue
    update, energy metering, lifecycle tick — and emits the identical
    :class:`StepEvent` per module through the normal sink. In hierarchy
    mode the step first runs every serving computer's L0 lookahead, across
    all modules, as one :meth:`L0BankKernel.decide_many` call, with the
    inputs ``ModuleShardRunner.step`` forms: rate rows
    ``(gamma_module_i * gamma_ij) * forecast`` from the runner's own
    gamma, the plant's queues, and the run's step c-hat. The chosen
    settings land in the plant before the fluid step.
    Baseline periods touch no controllers between boundaries.

    The executor steps the run's
    :class:`~repro.cluster.state.PlantState` in place: its queue, power
    state, boot countdown and setting arrays are the very ones the
    ``Computer`` objects read and write, so boundary decisions and
    faults, which the runners apply on the objects as on the scalar
    kernel, need no copy in or out. What the executor derives from the
    state it keeps until the state's counters move: a power-state change
    rebuilds the lifecycle masks, and a setting change (or a new work)
    re-prices the phi- and work-dependent entries. The runners' gammas
    are re-read by :meth:`read_gammas` after each boundary and after a
    fault due mid-period. Only the base/dynamic energy accumulators and
    the step clocks are mirrored: nothing else advances them during a
    run, and :meth:`flush` writes them back for a result or a mid-run
    summary. Switch counts and transient energy only ever change in the
    objects' code, so they are never mirrored here.
    """

    def __init__(
        self,
        runners: list,
        plant,
        l0_period: float,
        target_response: float,
    ) -> None:
        self.runners = list(runners)
        #: The run's :class:`~repro.cluster.state.PlantState`.
        self.plant = plant
        self.dt = float(l0_period)
        self.target_response = target_response
        #: Per-module response-row aggregates for the most recent
        #: ``step_all`` call: ``(sum, count, max, violations)`` tuples,
        #: reduced in one batched pass so recorders can fold them
        #: without re-scanning each row (violations are counted against
        #: ``target_response``).
        self.step_stats: "list[tuple]" = []
        #: Plant-constant cache: masks, power draws, and capacities are
        #: functions of power state / phi / work only. It records the
        #: plant's ``power_changes`` its masks were built at and the
        #: ``setting_changes`` and work its prices were made at
        #: (``None`` until the whole cache is first built).
        self._cache = None
        self.module_count = len(self.runners)
        self._module_indices = [runner.module_index for runner in self.runners]
        self.sizes = [runner.plant.size for runner in self.runners]
        self.max_size = max(self.sizes)
        shape = plant.queues.shape
        self._valid = np.zeros(shape, dtype=bool)
        # Pad speed/base/scale keep padded expressions finite; the valid
        # mask excludes them from every observable quantity.
        self._speeds = np.ones(shape)
        self._bases = np.zeros(shape)
        self._scales = np.zeros(shape)
        self._names = [
            [c.spec.name for c in runner.plant.computers]
            for runner in self.runners
        ]
        # Mirrored meters (written back by flush()).
        self._energy_base = np.zeros(shape)
        self._energy_dynamic = np.zeros(shape)
        self._clocks = np.zeros(shape)
        for i, runner in enumerate(self.runners):
            for j, computer in enumerate(runner.plant.computers):
                self._valid[i, j] = True
                self._speeds[i, j] = computer.model.speed_factor
                self._bases[i, j] = computer.spec.base_power
                self._scales[i, j] = computer.spec.power_scale
                self._energy_base[i, j] = computer.energy.base_energy
                self._energy_dynamic[i, j] = computer.energy.dynamic_energy
                self._clocks[i, j] = computer._clock
        self._clock_inc = np.where(self._valid, self.dt, 0.0)
        self._gammas = np.zeros(shape)
        self._raw_gammas = np.zeros(shape)
        #: Hierarchy mode: one L0 bank over every module's computers, in
        #: module-major order (the order the scalar runners decide in).
        l0s = [l0 for runner in self.runners for l0 in runner.l0_bank]
        self._bank = L0BankKernel(l0s) if l0s else None
        if self._bank is not None:
            settings = self._bank.max_settings
            self._bank_rows = np.zeros(shape, dtype=np.intp)
            self._phi_table = np.ones((len(l0s), settings))
            self._ghz_table = np.zeros((len(l0s), settings))
            row = 0
            for i, runner in enumerate(self.runners):
                for j, computer in enumerate(runner.plant.computers):
                    processor = computer.spec.processor
                    self._bank_rows[i, j] = row
                    for s, ghz in enumerate(processor.frequencies_ghz):
                        self._phi_table[row, s] = processor.scaling_factor(s)
                        self._ghz_table[row, s] = ghz
                    row += 1

    def read_gammas(self) -> None:
        """Read every runner's gamma (after a boundary or a fault)."""
        for i, runner in enumerate(self.runners):
            size = self.sizes[i]
            gamma = _fast_probability_vector(runner.gamma, size)
            if gamma is None:
                gamma = require_probability_vector(runner.gamma, "gamma")
            self._gammas[i, :size] = gamma
            self._raw_gammas[i, :size] = runner.gamma

    def flush(self) -> None:
        """Write the mirrored energy meters and step clocks back (idempotent)."""
        for i, runner in enumerate(self.runners):
            for j, computer in enumerate(runner.plant.computers):
                computer.energy.base_energy = float(self._energy_base[i, j])
                computer.energy.dynamic_energy = float(
                    self._energy_dynamic[i, j]
                )
                computer._clock = float(self._clocks[i, j])

    def _apply_due_faults(self, now: float) -> None:
        """Let each runner with a fault due by ``now`` apply it.

        The runners' ``_apply_faults`` works on the plant objects, which
        write through to the shared state; only the gammas are re-read.
        """
        due = [
            runner
            for runner in self.runners
            if runner.pending_events and runner.pending_events[0][0] <= now
        ]
        if not due:
            return
        for runner in due:
            runner._apply_faults(now)
        self.read_gammas()

    def _decide_frequencies(
        self,
        serving: np.ndarray,
        gamma_modules: np.ndarray,
        forecast: np.ndarray,
        work_estimate: float,
    ) -> None:
        """One batched L0 lookahead for every ``serving`` computer.

        Serving is read at the start of the step, as each scalar runner
        reads ``is_serving``; the chosen settings go into the plant's
        setting, phi and GHz arrays, counted as one setting change when
        one differs.
        """
        rows = self._bank_rows[serving]
        if rows.size == 0:
            return
        plant = self.plant
        coefficients = gamma_modules[:, None] * self._raw_gammas
        chosen = self._bank.decide_many(
            rows,
            plant.queues[serving],
            coefficients[serving][:, None] * forecast,
            np.full(rows.size, work_estimate),
        )
        if (chosen == plant.settings[serving]).all():
            return
        plant.settings[serving] = chosen
        plant.phis[serving] = self._phi_table[rows, chosen]
        plant.frequencies[serving] = self._ghz_table[rows, chosen]
        plant.setting_changes += 1

    def _rebuild_cache(self) -> dict:
        """Recompute the lifecycle masks for the plant's power states.

        Every entry is a pure function of the power states; the entries
        that depend on phi or work are left for :meth:`_price_settings`.
        """
        valid = self._valid
        states = self.plant.power_states
        accepts = states == ON
        booting = states == BOOTING
        draining = states == DRAINING
        draws = valid & (states != OFF) & (states != FAILED)
        rejecting = valid & ~(accepts | booting)
        cache = {
            "power_changes": self.plant.power_changes,
            "serving": accepts | draining,
            "draws": draws,
            "rejecting": rejecting,
            "any_rejecting": bool(rejecting.any()),
            "any_booting": bool(booting.any()),
            "booting": booting,
            "any_draining": bool(draining.any()),
            "energy_base_inc": np.where(draws, self._bases * self.dt, 0.0),
            "setting_changes": None,
            "work": None,
        }
        self._cache = cache
        return cache

    def _price_settings(self, cache: dict, work: float) -> None:
        """(Re)compute the entries of ``cache`` that depend on phi or work."""
        if not work > 0:
            raise ConfigurationError(f"mean_work must be > 0, got {work!r}")
        dt = self.dt
        serving = cache["serving"]
        draws = cache["draws"]
        phis = self.plant.phis
        frequencies = self.plant.frequencies
        dynamic = np.where(
            serving,
            (self._bases + self._scales * phis**2) - self._bases,
            0.0,
        )
        powers = np.where(draws, self._bases + dynamic, 0.0)
        cache.update(
            setting_changes=self.plant.setting_changes,
            work=work,
            capacities=np.where(serving, phis * self._speeds / work * dt, 0.0),
            effective_service=work / (np.maximum(phis, 1e-12) * self._speeds),
            # Left-to-right Python sums, as Module.total_power adds its
            # computers' draws (numpy would sum 8+ wide rows pairwise).
            power_sums=[
                sum(row[:size]) for row, size in zip(powers.tolist(), self.sizes)
            ],
            energy_dynamic_inc=np.where(draws, dynamic * dt, 0.0),
            # Frequencies are fixed until the next pricing, so one copy
            # serves every event until then; the copies are never
            # mutated afterwards, so sharing them is value-safe even for
            # observers that retain event references.
            freq_rows=[
                frequencies[i, : self.sizes[i]].copy()
                for i in range(self.module_count)
            ],
        )

    def step_all(
        self,
        step: int,
        now: float,
        module_shares: np.ndarray,
        work: float,
        gamma_modules: "np.ndarray | None" = None,
        forecast: "np.ndarray | None" = None,
        work_estimate: "float | None" = None,
    ) -> "list[StepEvent]":
        """Advance every module one T_L0 step; returns the events.

        ``module_shares`` is the per-module arrival row for this step
        (already split by the parent gamma) and ``work`` its mean
        service demand. Hierarchy runs also pass the parent's
        ``gamma_modules``, the fine-grained rate ``forecast`` (one
        entry per L0 lookahead depth) and the c-hat the L0 bank reads.
        """
        self._apply_due_faults(now)
        plant = self.plant
        dt = self.dt
        states = plant.power_states
        cache = self._cache
        if cache is None or cache["power_changes"] != plant.power_changes:
            cache = self._rebuild_cache()
        if self._bank is not None:
            self._decide_frequencies(
                cache["serving"], gamma_modules, forecast, work_estimate
            )
        if cache["setting_changes"] != plant.setting_changes or cache["work"] != work:
            self._price_settings(cache, work)
        serving = cache["serving"]
        shares = self._gammas * module_shares[:, None]
        if cache["any_rejecting"]:
            bad = (shares > 0) & cache["rejecting"]
            if bad.any():
                self.flush()
                i, j = map(int, np.argwhere(bad)[0])
                raise ControlError(
                    f"{self._names[i][j]} received arrivals while "
                    f"{POWER_STATES[int(states[i, j])].value}"
                )
        # Fluid step (computer.step_fluid's expressions, batched).
        start_queues = plant.queues
        offered = start_queues + shares
        next_queues = np.maximum(offered - cache["capacities"], 0.0)
        served = offered - next_queues
        mid_queues = (start_queues + next_queues) / 2.0
        served_mask = (served > 0) & serving
        response_values = (1.0 + mid_queues) * cache["effective_service"]
        responses = np.where(served_mask, response_values, np.nan)
        self._energy_base += cache["energy_base_inc"]
        self._energy_dynamic += cache["energy_dynamic_inc"]
        start_queues[...] = next_queues
        # Lifecycle tick (uses the post-update queue, like the scalar).
        if cache["any_booting"]:
            booting = cache["booting"]
            remaining = plant.boot_remaining
            remaining[booting] -= dt
            done = booting & (remaining <= 1e-12)
            if done.any():
                remaining[done] = 0.0
                states[done] = ON
                plant.power_changes += 1
        if cache["any_draining"]:
            draining_empty = (states == DRAINING) & (next_queues <= 1e-9)
            if draining_empty.any():
                states[draining_empty] = OFF
                plant.power_changes += 1
        self._clocks += self._clock_inc
        # One batched reduction of every response row replaces the
        # recorders' per-row scans. Padded and idle entries are NaN, so
        # filling them with 0 (sum) / -inf (max) and comparing NaN>t as
        # False reproduces the scalar finite-filter arithmetic exactly
        # (all real responses are positive, and adding 0.0 to a
        # non-negative partial sum is exact). Rows of 8+ elements would
        # hit numpy's unrolled accumulation over a different element set
        # than the scalar finite subset, so wide modules skip the fast
        # stats and recorders re-scan their rows.
        if self.max_size < 8:
            row_counts = served_mask.sum(axis=1)
            row_sums = np.where(served_mask, response_values, 0.0).sum(axis=1)
            row_maxes = np.where(served_mask, response_values, -np.inf).max(
                axis=1
            )
            row_violations = (responses > self.target_response).sum(axis=1)
            self.step_stats = list(
                zip(
                    row_sums.tolist(),
                    row_counts.tolist(),
                    row_maxes.tolist(),
                    row_violations.tolist(),
                )
            )
        events = []
        share_list = module_shares.tolist()
        for i, module_index in enumerate(self._module_indices):
            size = self.sizes[i]
            events.append(
                StepEvent(
                    step=step,
                    time=now,
                    module=module_index,
                    arrivals=share_list[i],
                    frequencies=cache["freq_rows"][i],
                    responses=responses[i, :size].copy(),
                    queues=next_queues[i, :size].copy(),
                    power=cache["power_sums"][i],
                )
            )
        return events


# ----------------------------------------------------------------------
# Fast scalar-Python twins of the baseline controllers' act()
# ----------------------------------------------------------------------
#
# A baseline `act` works on module-sized arrays (typically 4 entries);
# at that size numpy's per-call dispatch overhead dwarfs the arithmetic.
# These twins perform the identical IEEE-754 double operations in the
# identical order with plain Python floats — elementwise float ops are
# the same instruction either way, and numpy's sum over fewer than 8
# contiguous float64 elements is a plain left-to-right accumulation —
# so the returned decision is bit-identical to `controller.act`.
# Anything unrecognised (custom baseline subclasses, modules wide enough
# that numpy's pairwise summation kicks in) falls back to the scalar
# method.


def _fast_quantize(weights: "list[float]", k: int, step: float) -> "list[float]":
    """Scalar twin of :func:`repro.core.simplex.quantize_to_simplex`."""
    n = len(weights)
    total = weights[0]
    for index in range(1, n):
        total += weights[index]
    if total <= 0:
        floors = [k // n] * n
        remainder = k - (k // n) * n
        for index in range(remainder):
            floors[index] += 1
        return [float(f) * step for f in floors]
    floors = []
    fractional = []
    floor_sum = 0
    for w in weights:
        scaled = w / total * k
        f = math.floor(scaled)
        floors.append(f)
        fractional.append(scaled - f)
        floor_sum += f
    remainder = k - floor_sum
    order = sorted(range(n), key=lambda i: -fractional[i])
    for index in order[:remainder]:
        floors[index] += 1
    return [float(f) * step for f in floors]


def _fast_act_state(controller) -> dict:
    """Per-controller constants for the fast act twins (cached once)."""
    state = getattr(controller, "_fast_act_cache", None)
    if state is not None:
        return state
    from repro.core.simplex import _quanta

    computers = controller.spec.computers
    state = {
        "n": controller.spec.size,
        "speeds": [float(s) for s in controller.speed_factors],
        "max_indices": [int(i) for i in controller.max_indices],
        "k": _quanta(controller.gamma_step),
        "step": float(controller.gamma_step),
        # Shared frozen copy for decisions that keep every machine at
        # max frequency; consumers only read it.
        "max_indices_arr": np.array(
            [int(i) for i in controller.max_indices]
        ),
        # Per-computer `scaling_factor * effective_speed_factor` products
        # (the dvfs rate numerators), precomputed exactly.
        "fe": [
            [
                float(f) * float(c.effective_speed_factor)
                for f in c.processor.scaling_factors
            ]
            for c in computers
        ],
    }
    controller._fast_act_cache = state
    return state


def _fast_threshold_on_off(controller, rate, work, alpha_current) -> "tuple":
    """The shared on/off provisioning core; returns (alpha, gamma, explored,
    cached) as plain Python values."""
    cached = _fast_act_state(controller)
    n = cached["n"]
    alpha = [bool(a) for a in alpha_current]
    if not any(alpha):
        speeds = cached["speeds"]
        best = 0
        for index in range(1, n):
            if speeds[index] > speeds[best]:
                best = index
        alpha[best] = True
    capacities = [s / work for s in cached["speeds"]]
    explored = 1
    on_sum = 0.0
    first = True
    for index in range(n):
        if alpha[index]:
            if first:
                on_sum = capacities[index]
                first = False
            else:
                on_sum += capacities[index]
    utilisation = rate / max(on_sum, 1e-9)
    if utilisation > controller.upper and not all(alpha):
        best = -1
        for index in range(n):
            if not alpha[index] and (
                best < 0 or capacities[index] > capacities[best]
            ):
                best = index
        alpha[best] = True
        explored += 1
    elif utilisation < controller.lower and sum(alpha) > 1:
        candidate = -1
        for index in range(n):
            if alpha[index] and (
                candidate < 0 or capacities[index] < capacities[candidate]
            ):
                candidate = index
        remaining = on_sum - capacities[candidate]
        if rate / max(remaining, 1e-9) < controller.upper:
            alpha[candidate] = False
            explored += 1
    weights = [
        capacities[index] if alpha[index] else 0.0 for index in range(n)
    ]
    gamma = _fast_quantize(weights, cached["k"], cached["step"])
    return alpha, gamma, explored, cached


def fast_baseline_act(controller, rate, work, alpha_current) -> BaselineDecision:
    """Bit-exact fast twin of ``controller.act`` for the stock baselines.

    Dispatches on the exact controller class; any subclass or policy it
    does not recognise — or a module wide enough (>= 8 computers) that
    numpy's pairwise summation would diverge from sequential Python
    accumulation — falls back to the scalar ``act``.
    """
    kind = type(controller)
    if controller.spec.size >= 8:
        return controller.act(rate, work, alpha_current)
    if kind is AlwaysOnMaxController:
        started = time.perf_counter()
        cached = _fast_act_state(controller)
        n = cached["n"]
        weights = [s / work for s in cached["speeds"]]
        gamma = _fast_quantize(weights, cached["k"], cached["step"])
        decision = BaselineDecision(
            alpha=np.ones(n, dtype=int),
            gamma=np.array(gamma),
            frequency_indices=cached["max_indices_arr"],
        )
        controller.stats.record(1, time.perf_counter() - started)
        return decision
    if kind is ThresholdOnOffController:
        started = time.perf_counter()
        alpha, gamma, explored, cached = _fast_threshold_on_off(
            controller, rate, work, alpha_current
        )
        decision = BaselineDecision(
            alpha=np.array([1 if a else 0 for a in alpha]),
            gamma=np.array(gamma),
            frequency_indices=cached["max_indices_arr"],
        )
        controller.stats.record(explored, time.perf_counter() - started)
        return decision
    if kind is ThresholdDvfsController:
        started = time.perf_counter()
        alpha, gamma, explored, cached = _fast_threshold_on_off(
            controller, rate, work, alpha_current
        )
        decision_freqs = list(cached["max_indices"])
        dvfs_target = controller.dvfs_target
        for j in range(cached["n"]):
            if not alpha[j]:
                continue
            needed = (gamma[j] * rate) / dvfs_target
            fe = cached["fe"][j]
            chosen = len(fe) - 1
            for index, numerator in enumerate(fe):
                if numerator / work >= needed:
                    chosen = index
                    break
            decision_freqs[j] = chosen
        decision = BaselineDecision(
            alpha=np.array([1 if a else 0 for a in alpha]),
            gamma=np.array(gamma),
            frequency_indices=np.array(decision_freqs),
        )
        controller.stats.record(explored, time.perf_counter() - started)
        return decision
    return controller.act(rate, work, alpha_current)
