"""Multi-rate co-simulation of the plant and the controller hierarchy.

The engine advances the fluid plant in T_L0 periods. Within each period:

1. at T_L1 boundaries the engine closes the last interval — its
   arrivals and work go to the run's filters — reads each filter once,
   and every module decides alpha and gamma from those readings (the
   run's L1s in one pass, :class:`~repro.controllers.l1.L1Bank`; each
   baseline on its own) and reconfigures itself;
2. each computer's L0 controller picks a DVFS setting (hierarchy mode
   only — baselines pin frequencies themselves);
3. the dispatcher splits the period's arrivals by gamma and every
   computer advances one fluid step.

One module's share of steps 1–3 lives in
:class:`~repro.sim.shard.ModuleShardRunner`, and the run around the
runners lives once, in :class:`_SimulationBase`. The run owns one
estimate per signal, and the controllers only decide: the global
arrival filter (an L2's or a baseline cluster's), one arrival filter
per module that forecasts its own load (no L2), the fine filter the
L0s read, one processing-time EWMA read at boundaries and one read at
T_L0 steps. Every decision gets its forecast, band and c-hat as
arguments. Under :class:`ClusterSimulation`'s L2 each L1 gets its share
of the global forecast (the paper's lambda_hat_i = gamma_i *
lambda_hat_g); in :class:`ModuleSimulation` the L1 gets all of its own
filter's, so a module run is a one-row cluster run with
``gamma_modules = [1.0]``. The engines state only how a period's split
is made and which result they build. On the ``vector`` kernel
(the default) both engines hand steps 2–3 of all their runners to one
:class:`~repro.sim.kernels.ClusterVectorExecutor` per run; the runner's
own ``step`` is the ``scalar`` reference. Passing ``baseline=`` pins
every module to a heuristic policy instead (static capacity-proportional
split, no L2/L1/L0 optimisation) — the §5.2 setting's reference points.

Both simulations follow one **stepwise protocol**: ``reset()`` starts a
fresh run (new plants, controllers, recorders and tuned filters, so two
``run()``\\ s of one simulation give equal results), ``step()`` advances
one T_L0 period, ``advance_period()`` generates the steps of one control
period, ``steps()`` generates the rest of the run, and ``finish()``
assembles the structured result. ``run()`` is a thin loop over that
protocol. Observers (:class:`~repro.sim.observers.SimulationObserver`)
receive typed events at every seam; the result arrays themselves are
accumulated by recorder observers riding the same interface, so
streaming consumers see exactly what the results see. Every per-run knob
travels in one :class:`~repro.sim.options.EngineOptions`
(``engine_options=``).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.common.errors import ConfigurationError, ControlError
from repro.common.validation import require_failure_events
from repro.cluster.module import Module
from repro.cluster.specs import ClusterSpec, ModuleSpec
from repro.controllers.baselines import _BaselineBase, make_baseline
from repro.controllers.l0 import L0Controller
from repro.controllers.l1 import (
    L1_HORIZON,
    ComputerBehaviorMap,
    L1Bank,
    L1Controller,
    L1Decision,
)
from repro.controllers.l2 import L2Controller, ModuleCostMap
from repro.controllers.params import L0Params, L1Params, L2Params
from repro.controllers.stats import ControllerStats
from repro.forecast.ewma import EwmaFilter
from repro.forecast.structural import WorkloadPredictor
from repro.maps.provider import MapProvider
from repro.sim.observers import (
    ClusterRecorder,
    L1DecisionEvent,
    L2DecisionEvent,
    ModuleRecorder,
    ObserverList,
    PeriodEvent,
    SimulationObserver,
    StepEvent,
)
from repro.sim.options import EngineOptions, resolve_engine_options
from repro.sim.results import (
    ClusterRunResult,
    ModuleRunResult,
    RunSummary,
    fold_summary,
    stream_quality,
)
from repro.sim.shard import (
    ModuleBoundaryInput,
    ModuleFinalization,
    ModuleShardRunner,
    ModuleStepInput,
    c_hat,
    control_substeps,
    set_points,
)
from repro.workload.trace import ArrivalTrace

if TYPE_CHECKING:
    from repro.sim.kernels import ClusterVectorExecutor


class _SimulationBase:
    """The stepwise protocol, written once for both engines.

    A subclass constructor sets ``engine_options``, ``trace``,
    ``work_series`` (``None`` means the constant ``mean_work``),
    ``substeps``, ``l0_params``, ``l1_params``, ``module_overrides``
    and what every run is built from: ``_modules`` (the module specs),
    ``_faults`` (each module's ``(time, computer, kind)`` events),
    ``_initial_gamma`` (each module's share of the arrivals), and either
    ``_behavior_maps`` (one list per module, hierarchy mode) or
    ``_make_baseline`` (``ModuleSpec -> controller``; ``None`` in
    hierarchy mode). A subclass implements :meth:`_override_target` and
    :meth:`_result`; a cluster also overrides :meth:`_open_run` and
    :meth:`_split`. The run itself lives in ``_state``.
    """

    _state: "_RunState | None" = None
    _make_baseline: "Callable[[ModuleSpec], _BaselineBase] | None" = None

    @property
    def kernel(self) -> str:
        """The control-period kernel this run executes on."""
        return self.engine_options.kernel

    @property
    def decision_deadline(self) -> "float | None":
        """Per-boundary wall-time budget (see :meth:`set_decision_deadline`)."""
        return self.engine_options.decision_deadline

    @property
    def metrics(self):
        """Attached metrics registry (see :meth:`set_telemetry`)."""
        return self.engine_options.metrics

    @property
    def tracer(self):
        """Attached decision tracer (see :meth:`set_telemetry`)."""
        return self.engine_options.tracer

    @property
    def total_steps(self) -> int:
        """Number of T_L0 steps in the full run."""
        return len(self.trace)

    @property
    def periods(self) -> int:
        """Number of control periods (T_L1 = T_L2) in the full run."""
        return int(np.ceil(self.total_steps / self.substeps))

    @property
    def finished(self) -> bool:
        """True once every step of the current run has been taken."""
        return self._state is not None and self._state.k >= self.total_steps

    @property
    def steps_taken(self) -> int:
        """T_L0 steps taken in the current run (0 before/without one)."""
        return 0 if self._state is None else self._state.k

    def set_decision_deadline(self, seconds: "float | None") -> None:
        """Budget each boundary's decisions to ``seconds`` of wall time.

        A decision that overruns is discarded: the previous alpha/gamma
        stay in force and the emitted :class:`L1DecisionEvent` carries
        ``held=True``. In a cluster the budget is shared down the
        hierarchy: an overrunning L2 decision holds every module too
        (its event and theirs carry ``held=True``). The L1s decide in
        one pass, checked once: a pass that ends past the budget holds
        every module in it. A baseline module is checked after its own
        decision and holds alone.
        On both engines the budget starts after the interval close has
        fed the filters, so it covers the boundary's forecasts and
        decisions, not filter updates. ``None`` (the default) disables
        the budget and skips every clock read.
        """
        self.engine_options.set_decision_deadline(seconds)

    def set_telemetry(self, metrics=None, tracer=None) -> None:
        """Attach a metrics registry and/or decision tracer.

        ``metrics`` (a :class:`~repro.obs.registry.MetricsRegistry`)
        receives decision-latency histograms. ``tracer`` (a
        :class:`~repro.obs.trace.Tracer` with sinks) receives decision
        spans: the L2-solve (clusters) / L1-lookahead / L0-bank
        sequence. ``None`` (the default) detaches and skips every
        related branch and clock read, so batch runs stay
        byte-identical.
        """
        self.engine_options.set_telemetry(metrics, tracer)

    def set_module_override(self, module: int, on: "int | None") -> None:
        """Pin (or with ``on=None`` release) one module's machines-on count.

        Takes effect at the next control-period boundary: the module's
        first ``on`` available machines serve with an equal gamma split,
        and its boundary event carries ``forced=True``. Module plants
        have exactly one module, index 0.
        """
        size, owner = self._override_target(module)
        if on is None:
            self.module_overrides.pop(module, None)
            return
        if not isinstance(on, int) or isinstance(on, bool) or on < 1:
            raise ConfigurationError(
                f"override machines-on count must be a positive int, got {on!r}"
            )
        if on > size:
            raise ConfigurationError(
                f"override asks for {on} machines but {owner} has only {size}"
            )
        self.module_overrides[module] = on

    def _override_target(self, module: int) -> "tuple[int, str]":
        """``(size, name)`` of the overridable module, or raise."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Stepwise protocol
    # ------------------------------------------------------------------

    def reset(self, observers: "Iterable[SimulationObserver]" = ()):
        """Start a fresh run: new plants, controllers, recorders, tuned filters.

        Every call builds the run's controllers anew, so one simulation's
        runs never share state and two ``run()``\\ s give equal results.
        """
        hierarchy = self._make_baseline is None
        if hierarchy:
            controllers = [
                L1Controller(spec, maps, self.l1_params, self.l0_params)
                for spec, maps in zip(self._modules, self._behavior_maps)
            ]
        else:
            controllers = [self._make_baseline(spec) for spec in self._modules]
        runners = [
            ModuleShardRunner(
                module_index=i,
                plant=Module(spec, initially_on=True),
                controller=controller,
                l0_bank=(
                    [L0Controller(c, self.l0_params) for c in spec.computers]
                    if hierarchy
                    else []
                ),
                l0_params=self.l0_params,
                mean_work=self.engine_options.mean_work,
                is_baseline=not hierarchy,
                failure_events=faults,
                kernel=self.kernel,
            )
            for i, (spec, controller, faults) in enumerate(
                zip(self._modules, controllers, self._faults)
            )
        ]
        module_recorders = [
            ModuleRecorder(
                self.total_steps,
                spec.size,
                self.periods,
                module=i,
                window=self.engine_options.recorder_window,
                target_response=self.l0_params.target_response,
                step_seconds=self.l0_params.period,
            )
            for i, spec in enumerate(self._modules)
        ]
        l2, global_filter, cluster_recorder = self._open_run()
        top = () if cluster_recorder is None else (cluster_recorder,)
        state = _RunState(
            runners=runners,
            module_recorders=module_recorders,
            sink=ObserverList(
                (*top, *module_recorders, *observers),
                target_response=self.l0_params.target_response,
            ),
            vector_executor=self._vector_executor(runners),
            l1_bank=L1Bank(controllers) if hierarchy else None,
            gamma_modules=self._initial_gamma.copy(),
            interval_module=np.zeros(len(runners)),
            global_filter=global_filter,
            module_filters=(
                [] if l2 is not None else [self._arrival_filter() for _ in runners]
            ),
            fine_predictor=self._arrival_filter() if hierarchy else None,
            boundary_work=EwmaFilter(smoothing=0.1),
            step_work=EwmaFilter(smoothing=0.1) if hierarchy else None,
            l2=l2,
            cluster_recorder=cluster_recorder,
        )
        self._tune(state)
        self._state = state
        state.sink.on_run_start(self)
        return self

    def advance_period(self) -> Iterator:
        """Generate the remaining steps of the current control period."""
        period = self._require_state().k // self.substeps
        while not self.finished and self._state.k // self.substeps == period:
            yield self.step()

    def steps(self) -> Iterator:
        """Generate every remaining step of the run."""
        self._require_state()
        while not self.finished:
            yield self.step()

    def run(self, observers: "Iterable[SimulationObserver]" = ()):
        """Simulate the full trace; returns the structured result."""
        self.reset(observers=observers)
        for _ in self.steps():
            pass
        return self.finish()

    def finish(self):
        """Assemble the structured result once all steps are taken."""
        state = self._require_state()
        if state.k < self.total_steps:
            raise ControlError(
                f"run not finished: {state.k}/{self.total_steps} steps taken"
            )
        if state.result is None:
            modules = [
                self._module_result(spec, recorder, final)
                for spec, recorder, final in zip(
                    self._modules, state.module_recorders, self._finals(state)
                )
            ]
            state.result = self._result(state, modules)
            state.sink.on_run_end(state.result)
        return state.result

    def live_summary(self) -> RunSummary:
        """Headline metrics over the steps taken so far (mid-run safe).

        A non-destructive ``finalize`` snapshot of every runner, folded
        with the same online :class:`StreamStats` aggregates and the
        same arithmetic as the result's ``summary()``, so at end of run
        the two agree bit for bit.
        """
        state = self._state
        if state is None:
            raise ControlError("no active run; call reset() first")
        return fold_summary(
            self._finals(state),
            stream_quality([recorder.stream for recorder in state.module_recorders]),
            0.0 if state.l2 is None else state.l2.stats.total_seconds,
        )

    def _require_state(self) -> "_RunState":
        if self._state is None:
            self.reset()
        return self._state

    def _step(self) -> "list[StepEvent]":
        """Advance one T_L0 period; returns one event per module."""
        state = self._require_state()
        k = state.k
        if k >= self.total_steps:
            raise ControlError("simulation already finished; call reset()")
        vector = state.vector_executor
        now = k * self.l0_params.period
        work = (
            self.engine_options.mean_work
            if self.work_series is None
            else float(self.work_series[k])
        )
        if k % self.substeps == 0:
            if vector is not None:
                vector.flush(full=False)
            self._open_period(state, k, now, work)
            if vector is not None:
                vector.pull()
        arrivals = float(self.trace.counts[k])
        state.interval_global += arrivals
        shares = state.gamma_modules * arrivals
        state.interval_module += shares
        forecast = self._fine_forecast(state, arrivals)
        step_work = state.step_work
        work_estimate = None if step_work is None else c_hat(step_work)
        if vector is not None:
            # Stock recorders fold the executor's row stats (none when
            # it skipped the fold) instead of re-scanning each row.
            events = vector.step_all(
                k, now, shares, work, state.gamma_modules, forecast, work_estimate
            )
            row_stats = vector.step_stats
            for row, event in enumerate(events):
                state.sink.on_step(event, row_stats[row] if row_stats else None)
        else:
            events = []
            for runner, share, gamma_module in zip(
                state.runners, shares, state.gamma_modules
            ):
                event = runner.step(
                    ModuleStepInput(
                        step=k,
                        time=now,
                        share=share,
                        gamma_module=gamma_module,
                        forecast=forecast,
                        work=work,
                        work_estimate=work_estimate,
                    )
                )
                state.sink.on_step(event)
                events.append(event)
        if step_work is not None:
            step_work.observe(work)
        if (k + 1) % self.substeps == 0 or k + 1 == self.total_steps:
            period = k // self.substeps
            self._emit_l0_bank(state, period)
            state.sink.on_period_end(
                PeriodEvent(
                    period=period,
                    arrivals=state.interval_global,
                    module_arrivals=state.interval_module.copy(),
                )
            )
        state.k = k + 1
        return events

    # -- the period boundary --------------------------------------------

    def _open_period(
        self, state: "_RunState", k: int, now: float, work: float
    ) -> None:
        """Close the last interval, then take every module's decision.

        The deadline budget (``None`` in batch runs, which skips every
        clock read) starts after the close: one absolute instant the L2
        decision and every module's decision must beat. Under the
        hierarchy the boundary runs in this order: the L2 decides and
        its event is emitted; every runner applies its due faults; one
        :class:`~repro.controllers.l1.L1Bank` pass decides every module
        the L2 did not hold; one deadline check follows, and past the
        deadline every module in the pass holds its allocation; then
        each runner, in module order, applies, holds or forces its
        decision and emits its event. Baseline modules decide and check
        the deadline one by one, in their runners.
        """
        if k > 0:
            self._close_interval(state, work)
        state.interval_global = 0.0
        state.interval_module[:] = 0.0
        deadline = self.decision_deadline
        deadline_at = None if deadline is None else time.monotonic() + deadline
        l2_event, boundaries = self._boundary(
            state, k // self.substeps, now, deadline_at
        )
        if l2_event is not None:
            state.sink.on_l2_decision(l2_event)
        if state.l1_bank is None:
            for runner, boundary in zip(state.runners, boundaries):
                state.sink.on_l1_decision(self._begin_period(runner, boundary))
            return
        for runner in state.runners:
            runner._apply_faults(now)
        decisions, wall = self._decide_l1(state, boundaries)
        held = deadline_at is not None and time.monotonic() > deadline_at
        for runner, boundary, decision in zip(state.runners, boundaries, decisions):
            event = runner.begin_period(boundary, None if held else decision)
            self._emit_l1(event, 0.0 if decision is None else wall, L1_HORIZON)
            state.sink.on_l1_decision(event)

    def _decide_l1(
        self, state: "_RunState", boundaries: "list[ModuleBoundaryInput]"
    ) -> "tuple[list[L1Decision | None], float]":
        """One L1 pass over the modules the L2 did not hold.

        Returns each module's decision (``None`` when held) and each
        decided module's share of the pass's wall time, read only when
        telemetry is attached (else 0.0).
        """
        decided = [i for i, boundary in enumerate(boundaries) if not boundary.hold]
        decisions: "list[L1Decision | None]" = [None] * len(boundaries)
        if not decided:
            return decisions, 0.0
        runners = [state.runners[i] for i in decided]
        inputs = [boundaries[i] for i in decided]
        tracer = self.tracer
        timed = self.metrics is not None or (tracer is not None and tracer.enabled)
        t0 = time.perf_counter() if timed else 0.0
        made = state.l1_bank.decide(
            decided,
            [runner.plant.queue_lengths for runner in runners],
            [runner.alpha for runner in runners],
            [boundary.rate_hat for boundary in inputs],
            [boundary.rate_next for boundary in inputs],
            [boundary.delta for boundary in inputs],
            inputs[0].work,
            [runner.plant.available_mask for runner in runners],
        )
        wall = (time.perf_counter() - t0) / len(decided) if timed else 0.0
        for i, decision in zip(decided, made):
            decisions[i] = decision
        return decisions, wall

    def _close_interval(self, state: "_RunState", work: float) -> None:
        """Feed the closed period to the run's arrival filters and c-hat.

        The global filter gets the period total and each module filter
        its module's share. On the vector kernel they advance in one
        :func:`~repro.sim.kernels.batched_predictor_observe` call, bit
        for bit their own ``observe``. The boundary EWMA gets the
        boundary ``work``.
        """
        predictors = state.module_filters
        values = state.interval_module.tolist() if predictors else []
        if state.global_filter is not None:
            predictors = [state.global_filter, *predictors]
            values = [state.interval_global, *values]
        if state.vector_executor is None:
            for predictor, value in zip(predictors, values):
                predictor.observe(value)
        else:
            from repro.sim.kernels import batched_predictor_observe

            batched_predictor_observe(predictors, values)
        if work > 0:
            state.boundary_work.observe(work)

    def _tune(self, state: "_RunState") -> None:
        """Tune the run's filters on the warm-up (§4.3).

        The boundary EWMA takes one ``mean_work`` observation; the step
        EWMA gets none.
        """
        warmup = self.engine_options.warmup_intervals
        if warmup <= 0:
            return
        counts = self.trace.rebinned(self.l1_params.period).counts[:warmup]
        if state.global_filter is not None:
            state.global_filter.tune_on(counts)
        for predictor, gamma in zip(state.module_filters, state.gamma_modules):
            predictor.tune_on(counts * gamma)
        state.boundary_work.observe(self.engine_options.mean_work)
        if state.fine_predictor is not None:
            state.fine_predictor.tune_on(self.trace.counts[: warmup * self.substeps])

    def _arrival_filter(self) -> WorkloadPredictor:
        """A fresh arrival filter with the L1's band window."""
        return WorkloadPredictor(band_window=self.l1_params.band_window)

    def _open_run(self) -> tuple:
        """A fresh run's ``(l2, global filter, cluster recorder)``: none here."""
        return None, None, None

    def _boundary(
        self,
        state: "_RunState",
        period: int,
        now: float,
        deadline_at: "float | None",
    ) -> "tuple[L2DecisionEvent | None, list[ModuleBoundaryInput]]":
        """The boundary's L2 event (clusters) and every module's input.

        Each filter is read once. A module's set-points are its share of
        one filter's forecast: gamma_i of the global filter's under an
        L2, else all of its own filter's. A baseline reads only its own
        filter's one-step forecast, as a rate. Every decision gets the
        one boundary c-hat.
        """
        work = c_hat(state.boundary_work)
        l2_event, global_counts = self._split(state, period, work, deadline_at)
        filters = state.module_filters
        seconds = self.l1_params.period
        if self._make_baseline is not None:
            if state.vector_executor is None:
                counts = [float(f.forecast(1)[0]) for f in filters]
            else:
                from repro.sim.kernels import fast_forecast1

                counts = [fast_forecast1(f) for f in filters]
            points = [(count / seconds, 0.0, 0.0, count) for count in counts]
        else:
            if state.l2 is None:
                reads = [(f.forecast(2), f.band.delta, 1.0) for f in filters]
            else:
                band = state.global_filter.band.delta
                reads = [(global_counts, band, g) for g in state.gamma_modules]
            use_band = self.l1_params.use_uncertainty_band
            points = [set_points(*read, seconds, use_band) for read in reads]
        hold = l2_event is not None and l2_event.held
        boundaries = [
            ModuleBoundaryInput(
                period=period,
                now=now,
                work=work,
                rate_hat=rate_hat,
                rate_next=rate_next,
                delta=delta,
                prediction=prediction,
                deadline_at=deadline_at,
                hold=hold,
                force_on=self.module_overrides.get(i),
            )
            for i, (rate_hat, rate_next, delta, prediction) in enumerate(points)
        ]
        return l2_event, boundaries

    def _split(
        self,
        state: "_RunState",
        period: int,
        work: float,
        deadline_at: "float | None",
    ) -> "tuple[L2DecisionEvent | None, np.ndarray | None]":
        """The cluster's split and event, and the global forecast read.

        Clusters only: a module run has neither.
        """
        return None, None

    def _result(self, state: "_RunState", modules: "list[ModuleRunResult]"):
        """The run's structured result from its module results."""
        raise NotImplementedError

    # -- the shared per-module pieces -----------------------------------

    def _begin_period(
        self, runner: ModuleShardRunner, boundary: ModuleBoundaryInput
    ) -> L1DecisionEvent:
        """One baseline module's boundary decision, with its telemetry.

        Times the runner's ``begin_period`` into its :meth:`_emit_l1`
        records. Detached telemetry takes no clock reads.
        """
        tracer = self.tracer
        if self.metrics is None and (tracer is None or not tracer.enabled):
            return runner.begin_period(boundary)
        t0 = time.perf_counter()
        event = runner.begin_period(boundary)
        self._emit_l1(event, time.perf_counter() - t0, 0)
        return event

    def _emit_l1(self, event: L1DecisionEvent, wall: float, lookahead: int) -> None:
        """Record one module decision's telemetry at ``wall`` seconds.

        One ``repro_decision_seconds{level="l1"}`` sample and one
        ``l1-lookahead`` span; nothing when telemetry is detached.
        """
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if metrics is not None:
            metrics.histogram(
                "repro_decision_seconds",
                "Wall time per controller decision.",
                level="l1",
            ).observe(wall)
        if tracing:
            tracer.emit(
                "l1-lookahead",
                period=event.period,
                module=event.module,
                wall_us=wall * 1e6,
                machines_on=int(event.alpha.sum()),
                lookahead=lookahead,
                held=event.held,
                forced=event.forced,
            )

    def _emit_l0_bank(self, state: "_RunState", period: int) -> None:
        """One ``l0-bank`` span per module for the period just closed.

        L0 wall time comes from the bank's own accounting (the
        controllers time themselves), so the step path gains no clock
        reads: each span is the delta since the module's last mark.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        marks = state.l0_marks
        for runner in state.runners:
            if not runner.l0_bank:
                continue
            wall_total = sum(l0.stats.wall_seconds for l0 in runner.l0_bank)
            states_total = sum(l0.stats.states_explored for l0 in runner.l0_bank)
            wall_mark, states_mark = marks.get(runner.module_index, (0.0, 0))
            tracer.emit(
                "l0-bank",
                period=period,
                module=runner.module_index,
                wall_us=(wall_total - wall_mark) * 1e6,
                states=states_total - states_mark,
            )
            marks[runner.module_index] = (wall_total, states_total)

    def _vector_executor(self, runners) -> "ClusterVectorExecutor | None":
        """The batched step engine over ``runners``; ``None`` on scalar.

        Boundaries and faults stay on the runners: ``flush`` before a
        boundary and ``pull`` after it keep the two views in sync.
        """
        if self.kernel != "vector":
            return None
        from repro.sim.kernels import ClusterVectorExecutor

        return ClusterVectorExecutor(
            runners,
            self.l0_params.period,
            target_response=self.l0_params.target_response,
        )

    def _fine_forecast(self, state, arrivals: float) -> "np.ndarray | None":
        """The L0s' rate forecast for this step, then the predictor observes.

        ``None`` without a fine predictor (baseline runs). The vector
        kernel observes through the bit-identical scalar-float Kalman
        update of :func:`~repro.sim.kernels.batched_predictor_observe`.
        """
        predictor = state.fine_predictor
        if predictor is None:
            return None
        forecast = predictor.forecast(self.l0_params.horizon) / self.l0_params.period
        if state.vector_executor is None:
            predictor.observe(arrivals)
        else:
            from repro.sim.kernels import batched_predictor_observe

            batched_predictor_observe([predictor], [arrivals])
        return forecast

    def _finals(self, state: "_RunState") -> "list[ModuleFinalization]":
        """Every runner's aggregates, with the executor's mirrors written back."""
        if state.vector_executor is not None:
            state.vector_executor.flush()
        return [runner.finalize() for runner in state.runners]

    def _module_result(
        self,
        spec: ModuleSpec,
        recorder: ModuleRecorder,
        final: ModuleFinalization,
    ) -> ModuleRunResult:
        """One module's structured result: recorder series + aggregates."""
        return ModuleRunResult(
            l0_period=self.l0_params.period,
            l1_period=self.l1_params.period,
            computer_names=[c.name for c in spec.computers],
            arrivals=recorder.arrivals,
            frequencies=recorder.frequencies,
            responses=recorder.responses,
            queues=recorder.queues,
            power=recorder.power,
            l1_arrivals=recorder.l1_arrivals,
            l1_predictions=recorder.l1_predictions,
            computers_on=recorder.computers_on,
            target_response=self.l0_params.target_response,
            energy_base=final.energy_base,
            energy_dynamic=final.energy_dynamic,
            energy_transient=final.energy_transient,
            switch_ons=final.switch_ons,
            switch_offs=final.switch_offs,
            l0_stats=final.l0_stats,
            l1_stats=final.l1_stats,
            stream=recorder.stream,
        )


@dataclass
class _RunState:
    """One run's mutable state, for either engine.

    Per-module state (plant, controllers, alpha/gamma) lives in the
    :class:`~repro.sim.shard.ModuleShardRunner` objects in ``runners``.
    Every filter a decision reads lives here, once.
    """

    runners: "list[ModuleShardRunner]"
    module_recorders: "list[ModuleRecorder]"
    sink: ObserverList
    #: Batched step engine (vector kernel only; None on scalar).
    vector_executor: "ClusterVectorExecutor | None"
    #: Every module's L1, decided in one pass per boundary (hierarchy
    #: only; None under baselines).
    l1_bank: "L1Bank | None"
    #: Each module's fraction of the arrivals (``[1.0]`` on a module run).
    gamma_modules: np.ndarray
    interval_module: np.ndarray
    #: The filter fed each period's total (clusters only).
    global_filter: "WorkloadPredictor | None"
    #: One filter per module, fed its share, where no L2 splits the
    #: forecast (the module engine and baseline clusters); else empty.
    module_filters: "list[WorkloadPredictor]"
    #: The fine-grained rate predictor the L0s read (hierarchy only).
    fine_predictor: "WorkloadPredictor | None"
    #: c-hat at boundaries: the L1s, the L2 and the baselines read it.
    boundary_work: EwmaFilter
    #: c-hat at T_L0 steps: the L0s read it (hierarchy only).
    step_work: "EwmaFilter | None"
    #: The cluster's L2 (hierarchy clusters only).
    l2: "L2Controller | None" = None
    cluster_recorder: "ClusterRecorder | None" = None
    interval_global: float = 0.0
    k: int = 0
    #: Per-module cumulative L0 wall/states already attributed to
    #: emitted l0-bank spans.
    l0_marks: dict = field(default_factory=dict)
    result: "ModuleRunResult | ClusterRunResult | None" = None


class ModuleSimulation(_SimulationBase):
    """One module under the LLC hierarchy or a baseline policy.

    One :class:`~repro.sim.shard.ModuleShardRunner` (module 0, no L2)
    taking every arrival: at each boundary the L1 takes its
    arrival-rate set-points from the run's filter of the module's
    arrivals. ``baseline=`` is a
    template controller: each run steps a deep copy of it, so the
    caller's instance is never mutated.
    """

    def __init__(
        self,
        spec: ModuleSpec,
        trace: ArrivalTrace,
        l0_params: L0Params | None = None,
        l1_params: L1Params | None = None,
        baseline: _BaselineBase | None = None,
        behavior_maps: "list[ComputerBehaviorMap] | None" = None,
        work_series: np.ndarray | None = None,
        failure_events: "tuple[tuple[float, int, str], ...]" = (),
        map_cache=None,
        engine_options: "EngineOptions | None" = None,
    ) -> None:
        self.spec = spec
        self.l0_params = l0_params or L0Params()
        self.l1_params = l1_params or L1Params()
        self.engine_options = resolve_engine_options(engine_options)
        self.trace = trace.rebinned(self.l0_params.period)
        self.substeps = control_substeps(self.l0_params, self.l1_params)
        validated_events = require_failure_events(
            failure_events, {"computer": spec.size}
        )
        if validated_events and baseline is not None:
            raise ConfigurationError(
                "failure injection is supported in hierarchy mode only"
            )
        self.failure_events = tuple(
            sorted(validated_events, key=lambda e: e[0])
        )
        self._modules = [spec]
        self._faults = [self.failure_events]
        self._initial_gamma = np.ones(1)
        if baseline is not None:
            self._make_baseline = lambda _spec: copy.deepcopy(baseline)
        elif behavior_maps is None:
            # Route training through the artifact layer: identical
            # computers share one map, repeated constructions reuse the
            # process memo, and ``map_cache`` persists the artifacts
            # across processes and runs.
            behavior_maps = MapProvider(cache=map_cache).behavior_maps(
                spec, self.l0_params, self.l1_params
            )
        self._behavior_maps = [behavior_maps]
        if work_series is None:
            work_series = np.full(len(self.trace), self.engine_options.mean_work)
        if work_series.size != len(self.trace):
            raise ConfigurationError("work_series must align with the trace bins")
        self.work_series = work_series
        self.module_overrides: "dict[int, int]" = {}

    def _override_target(self, module: int) -> "tuple[int, str]":
        if module != 0:
            raise ConfigurationError(
                f"module plants have a single module (index 0), got {module}"
            )
        return self.spec.size, "the module"

    def step(self) -> StepEvent:
        """Advance one T_L0 period; returns the step's event."""
        (event,) = self._step()
        return event

    def _result(self, state, modules) -> ModuleRunResult:
        return modules[0]


class ClusterSimulation(_SimulationBase):
    """A cluster of modules under the full L2/L1/L0 hierarchy.

    Passing ``baseline=`` (a registered baseline name such as
    ``"threshold-dvfs"`` or a ``ModuleSpec -> controller`` factory) pins
    every module to that heuristic policy instead: the global stream is
    split by static full-speed capacity shares and each module is run by
    its own baseline controller — no abstraction-map training, no
    lookahead. This is the §5.2 analogue of the module-level baselines,
    which the original run-to-completion API could not express. Each
    run builds its own controllers from the factory (or the maps).

    ``failure_events`` injects cluster-level faults as
    ``(time_seconds, module_index, computer_index, 'fail'|'repair')``
    tuples (hierarchy mode only, like the module-level engine).
    ``work_series`` supplies a per-T_L0-step mean service demand
    (seconds/request) aligned with the trace — the Zipf-mix workloads'
    drifting ``c`` — and defaults to the constant
    ``engine_options.mean_work``.
    ``map_cache`` (a :class:`~repro.maps.cache.MapCache` or directory
    path) persists the offline-trained abstraction maps on disk,
    content-addressed; a warm cache turns construction-time training
    into artifact loads with bit-identical results.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        trace: ArrivalTrace,
        l0_params: L0Params | None = None,
        l1_params: L1Params | None = None,
        l2_params: L2Params | None = None,
        module_maps: "list[ModuleCostMap] | None" = None,
        baseline: "str | Callable[[ModuleSpec], _BaselineBase] | None" = None,
        baseline_params: "dict | None" = None,
        failure_events: "tuple[tuple[float, int, int, str], ...]" = (),
        work_series: np.ndarray | None = None,
        map_cache=None,
        engine_options: "EngineOptions | None" = None,
    ) -> None:
        self.spec = spec
        self.l0_params = l0_params or L0Params()
        self.l1_params = l1_params or L1Params()
        self.l2_params = l2_params or L2Params()
        self.engine_options = resolve_engine_options(engine_options)
        self.trace = trace.rebinned(self.l0_params.period)
        if work_series is not None and work_series.size != len(self.trace):
            raise ConfigurationError(
                "work_series must align with the trace bins"
            )
        self.work_series = work_series
        # The L2 decides on the L1's period, as the paper does.
        self.substeps = control_substeps(self.l0_params, self.l1_params)
        if baseline_params and baseline is None:
            raise ConfigurationError(
                "baseline_params given without a baseline policy"
            )
        validated_events = require_failure_events(
            failure_events, {"module": spec.module_count, "computer": None}
        )
        for _, module_index, computer_index, _ in validated_events:
            if computer_index >= spec.modules[module_index].size:
                raise ConfigurationError(
                    f"failure_events computer index {computer_index} out of "
                    f"range for module {module_index} "
                    f"(size {spec.modules[module_index].size})"
                )
        if validated_events and baseline is not None:
            raise ConfigurationError(
                "failure injection is supported in hierarchy mode only"
            )
        self.failure_events = tuple(
            sorted(validated_events, key=lambda e: e[0])
        )
        self._modules = list(spec.modules)
        self._faults = [
            tuple(
                (time, computer, kind)
                for time, module_index, computer, kind in self.failure_events
                if module_index == i
            )
            for i in range(spec.module_count)
        ]
        self.module_maps: list[ModuleCostMap] = []
        self.module_overrides: "dict[int, int]" = {}
        if baseline is not None:

            def make_module_baseline(module_spec: ModuleSpec) -> _BaselineBase:
                if callable(baseline):
                    controller = baseline(module_spec)
                else:
                    controller = make_baseline(
                        baseline, module_spec, **(baseline_params or {})
                    )
                if not isinstance(controller, _BaselineBase):
                    raise ConfigurationError(
                        "cluster baseline factory must build baseline "
                        f"controllers, got {type(controller).__name__}"
                    )
                return controller

            self._make_baseline = make_module_baseline
            # Static capacity-proportional split of the global stream.
            capacities = np.array(
                [
                    m.max_service_rate(self.engine_options.mean_work)
                    for m in spec.modules
                ]
            )
            self._initial_gamma = capacities / capacities.sum()
            return
        self._initial_gamma = np.full(spec.module_count, 1.0 / spec.module_count)
        # Obtain (or accept) the per-module approximation architectures
        # through the trained-map artifact layer: every distinct content
        # digest trains at most once per cache, identical computers and
        # modules share instances within this simulation, and
        # ``map_cache`` persists the artifacts across processes and runs
        # (sweep workers load trained maps, never retrain).
        provider = MapProvider(cache=map_cache)
        self._behavior_maps = [
            provider.behavior_maps(module_spec, self.l0_params, self.l1_params)
            for module_spec in spec.modules
        ]
        if module_maps is None:
            module_maps = [
                provider.module_map(module_spec, maps, self.l1_params, self.l0_params)
                for module_spec, maps in zip(spec.modules, self._behavior_maps)
            ]
        elif len(module_maps) != spec.module_count:
            raise ConfigurationError("need one module map per module")
        self.module_maps = list(module_maps)

    def _override_target(self, module: int) -> "tuple[int, str]":
        if not isinstance(module, int) or isinstance(module, bool) or not (
            0 <= module < self.spec.module_count
        ):
            raise ConfigurationError(
                f"override module index must be in [0, {self.spec.module_count}), "
                f"got {module!r}"
            )
        return self.spec.modules[module].size, f"module {module}"

    def step(self) -> "list[StepEvent]":
        """Advance one T_L0 period; returns one event per module."""
        return self._step()

    def _open_run(self) -> tuple:
        """A fresh L2 (or a baseline's global filter) and cluster recorder."""
        recorder = ClusterRecorder(
            self.periods,
            self.spec.module_count,
            window=self.engine_options.recorder_window,
        )
        l2 = None
        if self._make_baseline is None:
            l2 = L2Controller(self.module_maps, self.l2_params)
        return l2, self._arrival_filter(), recorder

    def _split(self, state, period, work, deadline_at):
        """The L2 decision on the global forecast, read once.

        Returns the event and the two-period global forecast the
        modules' set-points share. A baseline cluster keeps its static
        split and reads only the one-step forecast, for the event.
        """
        l2 = state.l2
        if l2 is None:
            l2_event = L2DecisionEvent(
                period=period,
                gamma=state.gamma_modules.copy(),
                prediction=float(state.global_filter.forecast(1)[0]),
            )
            return l2_event, None
        global_counts = state.global_filter.forecast(2)
        global_prediction = float(global_counts[0])
        seconds = self.l1_params.period
        queue_avgs = np.array(
            [runner.plant.queue_lengths.mean() for runner in state.runners]
        )
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        timed = tracing or metrics is not None
        t0 = time.perf_counter() if timed else None
        l2_decision = l2.decide(
            queue_avgs,
            rate_hat=global_counts[0] / seconds,
            rate_next=global_counts[1] / seconds,
            work=work,
            gamma_current=state.gamma_modules,
        )
        l2_wall = time.perf_counter() - t0 if timed else 0.0
        l2_held = deadline_at is not None and time.monotonic() > deadline_at
        if not l2_held:
            state.gamma_modules = l2_decision.gamma
        l2_event = L2DecisionEvent(
            period=period,
            gamma=state.gamma_modules.copy(),
            prediction=global_prediction,
            held=l2_held,
        )
        if metrics is not None:
            metrics.histogram(
                "repro_decision_seconds",
                "Wall time per controller decision.",
                level="l2",
            ).observe(l2_wall)
        if tracing:
            tracer.emit(
                "l2-solve",
                period=period,
                wall_us=l2_wall * 1e6,
                gamma=[round(float(g), 6) for g in state.gamma_modules],
                prediction=round(global_prediction, 6),
                held=l2_held,
            )
        return l2_event, global_counts

    def _result(self, state, modules) -> ClusterRunResult:
        cluster = state.cluster_recorder
        return ClusterRunResult(
            l2_period=self.l1_params.period,
            module_names=[m.name for m in self.spec.modules],
            global_arrivals=cluster.global_arrivals,
            global_predictions=cluster.global_predictions,
            gamma_history=cluster.gamma_history,
            total_computers_on=cluster.per_module_on.sum(axis=1),
            per_module_on=cluster.per_module_on,
            target_response=self.l0_params.target_response,
            module_results=modules,
            l2_stats=ControllerStats() if state.l2 is None else state.l2.stats,
        )
