"""The per-module step path: one module's share of a control period.

The paper's hierarchy is naturally modular: the L2 controller splits the
global arrival stream with gamma, then each module's L1/L0 loop runs on
its own until the next control period. A :class:`ModuleShardRunner`
owns everything module-local — the plant, the module controller (L1 or
a baseline), the L0 bank, the current alpha/gamma, pending fault events
— and exposes the intra-period stepping as three calls
(``begin_period`` / ``step`` / ``finalize``). The module engine drives
one runner and the cluster engine one per module. Boundaries and
faults always run here: a baseline decides in its runner, and an L1
module applies the decision the engine's one pass over every L1 of
the boundary made. Between boundaries, the ``scalar`` kernel
calls :meth:`ModuleShardRunner.step`, the reference; on ``vector``
(the default) both engines step their runners' computers through
:class:`~repro.sim.kernels.ClusterVectorExecutor` instead, which steps
in place the run's one :class:`~repro.cluster.state.PlantState` that
these runners' plant objects read and write.

The engine owns every filter and computes every cross-module quantity
(L2 decisions, arrival shares, forecasts, c-hats). It hands each runner
plain floats through :class:`ModuleBoundaryInput` and
:class:`ModuleStepInput`; the runner returns the typed events the
observers consume. :func:`set_points` and :func:`c_hat` turn a
filter's reading into decision inputs, for the engines and the
discrete-event simulation alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.controllers.l1 import L1Decision
from repro.controllers.params import L0Params, L1Params
from repro.controllers.stats import ControllerStats
from repro.sim.observers import L1DecisionEvent, StepEvent

# ----------------------------------------------------------------------
# What the engine hands a runner, and what a runner hands back
# ----------------------------------------------------------------------


#: c-hat before any processing time is measured: 17.5 ms per request.
DEFAULT_WORK = 0.0175


def control_substeps(l0_params: L0Params, l1_params: L1Params) -> int:
    """T_L0 steps per control period (T_L1); raises unless at least one."""
    substeps = round(l1_params.period / l0_params.period)
    if substeps < 1:
        raise ConfigurationError("T_L1 must cover at least one T_L0")
    return substeps


def c_hat(ewma) -> float:
    """A processing-time EWMA's estimate, or :data:`DEFAULT_WORK` before one."""
    estimate = ewma.estimate
    return estimate if estimate > 0 else DEFAULT_WORK


def set_points(
    counts: np.ndarray,
    band_delta: float,
    share: float,
    seconds: float,
    use_band: bool,
) -> "tuple[float, float, float, float]":
    """An L1's ``(rate_hat, rate_next, delta, prediction)``.

    ``share`` of an arrival filter's two-period forecast ``counts`` and
    band half-width ``band_delta``, as rates over ``seconds``; the
    prediction stays a count. ``delta`` is 0 with the band off.
    """
    delta = share * band_delta / seconds if use_band else 0.0
    return (
        share * counts[0] / seconds,
        share * counts[1] / seconds,
        delta,
        share * counts[0],
    )


@dataclass(frozen=True)
class ModuleBoundaryInput:
    """Engine-computed inputs for one module's control-period boundary.

    The engine has already fed the closed interval to its filters and
    read them. ``work`` is the boundary c-hat. The ``rate_*`` /
    ``delta`` / ``prediction`` fields are the L1 set-points: the
    module's share of the global forecast under an L2, else its own
    filter's forecast. A baseline reads ``rate_hat`` (its one-step
    forecast as a rate) and ``prediction`` only.

    The last three fields are the live-service seams and default to the
    batch behaviour: ``deadline_at`` is an absolute ``time.monotonic()``
    deadline for this boundary's decisions (``None`` disables the check
    and skips every clock read, keeping batch runs byte-identical);
    ``hold`` pre-holds the decision (the cluster's L2 already missed the
    shared deadline, so the L1 keeps its allocation too); ``force_on``
    pins the module to its first so-many available machines (a manual
    operator override).

    The hold rule: a baseline module checks ``deadline_at`` after its
    own decision and holds alone. The L1s of a boundary are decided in
    one pass (:class:`~repro.controllers.l1.L1Bank`), and the engine
    checks the deadline once, after it: a pass that ends past the
    deadline holds every module in it, and each runner is handed no
    decision.
    """

    period: int
    now: float
    work: float
    rate_hat: float = 0.0
    rate_next: float = 0.0
    delta: float = 0.0
    prediction: float = 0.0
    deadline_at: "float | None" = None
    hold: bool = False
    force_on: "int | None" = None


@dataclass(frozen=True)
class ModuleStepInput:
    """Engine-computed inputs for one module's T_L0 step.

    ``share`` is this module's slice of the global arrivals (the L2
    gamma split), ``gamma_module`` the module's current global load
    fraction, and ``forecast`` the shared fine-grained global rate
    forecast (hierarchy mode only). ``work`` is the step's mean service
    demand (``None`` means the runner's constant ``mean_work``), and
    ``work_estimate`` the L0s' c-hat of it (hierarchy mode only).
    """

    step: int
    time: float
    share: float
    gamma_module: float
    forecast: "np.ndarray | None" = None
    work: "float | None" = None
    work_estimate: "float | None" = None


@dataclass(frozen=True)
class ModuleFinalization:
    """Module aggregates the engine folds into the run result."""

    module: int
    energy_base: float
    energy_dynamic: float
    energy_transient: float
    switch_ons: int
    switch_offs: int
    l0_stats: ControllerStats
    l1_stats: ControllerStats


def forced_configuration(
    available_mask: np.ndarray,
    force_on: int,
    alpha: np.ndarray,
    gamma: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """The deterministic configuration a manual override pins.

    The first ``force_on`` available machines serve with an equal gamma
    split (clamped to [1, available count]); with nothing available the
    current configuration is kept — an override can never be allowed to
    wedge a module into serving with zero machines.
    """
    indices = np.flatnonzero(available_mask)
    if indices.size == 0:
        return alpha, gamma
    count = max(1, min(int(force_on), int(indices.size)))
    forced_alpha = np.zeros(alpha.size, dtype=bool)
    forced_alpha[indices[:count]] = True
    forced_gamma = forced_alpha.astype(float) / count
    return forced_alpha, forced_gamma


# ----------------------------------------------------------------------
# The per-module runner (shared by both engines)
# ----------------------------------------------------------------------


class ModuleShardRunner:
    """Owns one module's mutable run state and intra-period logic.

    The module engine and the cluster engine both call it, so every
    engine executes the identical float operations in the identical
    order.
    """

    def __init__(
        self,
        module_index: int,
        plant,
        controller,
        l0_bank: list,
        l0_params: L0Params,
        mean_work: float,
        is_baseline: bool,
        failure_events: "tuple[tuple[float, int, str], ...]" = (),
        kernel: str = "scalar",
    ) -> None:
        self.module_index = module_index
        self.plant = plant
        self.controller = controller
        self.l0_bank = list(l0_bank)
        self.l0_params = l0_params
        self.mean_work = mean_work
        self.is_baseline = is_baseline
        #: Control-period kernel. On ``vector`` a baseline boundary
        #: decides through :func:`~repro.sim.kernels.fast_baseline_act`.
        self.kernel = kernel
        self.alpha = np.ones(plant.size, dtype=bool)
        self.gamma = np.full(plant.size, 1.0 / plant.size)
        self.pending_events = sorted(failure_events, key=lambda e: e[0])

    # -- fault handling -------------------------------------------------

    def _apply_faults(self, now: float) -> None:
        while self.pending_events and self.pending_events[0][0] <= now:
            _, index_failed, kind = self.pending_events.pop(0)
            if kind == "fail":
                self.plant.fail_computer(index_failed)
                self.alpha[index_failed] = False
                if self.gamma[index_failed] > 0:
                    gamma = self.gamma.copy()
                    gamma[index_failed] = 0.0
                    total = gamma.sum()
                    if total > 0:
                        gamma = gamma / total
                    else:
                        # The only serving machine failed: emergency
                        # power-on of the fastest survivor; arrivals
                        # queue behind its boot.
                        survivor = int(
                            np.argmax(
                                np.where(
                                    self.plant.available_mask,
                                    [
                                        c.model.speed_factor
                                        for c in self.plant.computers
                                    ],
                                    -1.0,
                                )
                            )
                        )
                        self.plant.computers[survivor].power_on()
                        self.alpha[survivor] = True
                        gamma = np.zeros_like(gamma)
                        gamma[survivor] = 1.0
                    self.gamma = gamma
            else:
                self.plant.repair_computer(index_failed)

    # -- the three intra-period calls -----------------------------------

    def begin_period(
        self, boundary: ModuleBoundaryInput, decision: "L1Decision | None" = None
    ) -> L1DecisionEvent:
        """Apply this boundary's alpha/gamma and reconfigure the module.

        The engine's interval close has already fed the closed period to
        the filters (even for a period that ends up held), and the engine
        has read them into ``boundary``. A baseline module decides here;
        an L1 module applies ``decision``, which the engine's one L1
        pass over the boundary made, and holds when it is handed none
        (the ``hold`` the L2 declared, or a pass that missed the
        deadline). A decision is *computed first and applied after* the
        deadline check: one that missed its budget is discarded and the
        previous alpha/gamma stay in force — the plant never sees a
        transient from an abandoned decision. With no deadline and no
        override the operation sequence is exactly the original batch
        sequence.
        """
        self._apply_faults(boundary.now)
        held = boundary.hold
        if self.is_baseline:
            if not held:
                if self.kernel == "vector":
                    from repro.sim.kernels import fast_baseline_act

                    decision = fast_baseline_act(
                        self.controller, boundary.rate_hat, boundary.work, self.alpha
                    )
                else:
                    decision = self.controller.act(
                        boundary.rate_hat, boundary.work, self.alpha
                    )
                if (
                    boundary.deadline_at is not None
                    and time.monotonic() > boundary.deadline_at
                ):
                    held = True
            if not held:
                self.alpha = decision.alpha.astype(bool)
                self.gamma = decision.gamma
                self.plant.apply_configuration(self.alpha)
                self.plant.set_frequency_indices(decision.frequency_indices)
            else:
                self.plant.apply_configuration(self.alpha)
        else:
            held = held or decision is None
            if not held:
                self.alpha = decision.alpha.astype(bool)
                self.gamma = decision.gamma
            self.plant.apply_configuration(self.alpha)
        forced = False
        if boundary.force_on is not None:
            self.alpha, self.gamma = forced_configuration(
                self.plant.available_mask, boundary.force_on, self.alpha, self.gamma
            )
            self.plant.apply_configuration(self.alpha)
            forced = True
        return L1DecisionEvent(
            period=boundary.period,
            module=self.module_index,
            alpha=self.alpha.copy(),
            gamma=self.gamma.copy(),
            prediction=boundary.prediction,
            held=held,
            forced=forced,
        )

    def step(self, inp: ModuleStepInput) -> StepEvent:
        """Advance the module one T_L0 fluid step (the scalar kernel).

        One L0 ``decide`` per serving computer, then the plant's fluid
        step: the reference the vector kernel's batched step matches.
        """
        self._apply_faults(inp.time)
        work = inp.work if inp.work is not None else self.mean_work
        m = self.plant.size
        freq_row = np.zeros(m)
        if self.is_baseline:
            freq_row[:] = [c.frequency_ghz for c in self.plant.computers]
        else:
            for j, (computer, l0) in enumerate(
                zip(self.plant.computers, self.l0_bank)
            ):
                if computer.is_serving:
                    local_forecast = inp.gamma_module * self.gamma[j] * inp.forecast
                    freq = l0.decide(
                        computer.queue_length, local_forecast, inp.work_estimate
                    )
                    computer.set_frequency_index(freq.frequency_index)
                freq_row[j] = computer.frequency_ghz
        results = self.plant.step_fluid(
            inp.share, work, self.l0_params.period, self.gamma
        )
        response_row = np.empty(m)
        queue_row = np.empty(m)
        for j, result in enumerate(results):
            response_row[j] = result.response_time
            queue_row[j] = result.queue
        return StepEvent(
            step=inp.step,
            time=inp.time,
            module=self.module_index,
            arrivals=inp.share,
            frequencies=freq_row,
            responses=response_row,
            queues=queue_row,
            power=self.plant.total_power(results),
        )

    def finalize(self) -> ModuleFinalization:
        """Fold the plant and controller aggregates for the run result."""
        on_count, off_count = self.plant.switch_counts()
        l0_stats = ControllerStats()
        for l0 in self.l0_bank:
            l0_stats = l0_stats.merged_with(l0.stats)
        return ModuleFinalization(
            module=self.module_index,
            energy_base=sum(c.energy.base_energy for c in self.plant.computers),
            energy_dynamic=sum(
                c.energy.dynamic_energy for c in self.plant.computers
            ),
            energy_transient=sum(
                c.energy.transient_energy for c in self.plant.computers
            ),
            switch_ons=on_count,
            switch_offs=off_count,
            l0_stats=l0_stats,
            l1_stats=self.controller.stats,
        )
