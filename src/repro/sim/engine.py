"""Multi-rate co-simulation of the plant and the controller hierarchy.

The engine advances the fluid plant in T_L0 periods. Within each period:

1. at T_L1 boundaries the module controller (L1 or a baseline) observes
   the last interval's arrivals and processing times, decides alpha and
   gamma, and reconfigures the plant;
2. each computer's L0 controller picks a DVFS setting (hierarchy mode
   only — baselines pin frequencies themselves);
3. the dispatcher splits the period's arrivals by gamma and every
   computer advances one fluid step.

Steps 1–3 live in one place, :class:`~repro.sim.shard.ModuleShardRunner`.
:class:`ModuleSimulation` drives a single runner with set-points from
the module's own predictor; :class:`ClusterSimulation` stacks an L2
controller on top: at T_L2 boundaries it observes aggregate module
states and global arrivals, re-divides the workload across modules, and
hands every runner its share. On the ``vector`` kernel (the default)
both engines hand steps 2–3 of all their runners to one
:class:`~repro.sim.kernels.ClusterVectorExecutor` per run; the runner's
own ``step`` is the ``scalar`` reference. Passing ``baseline=`` pins
every module to a heuristic policy instead (static
capacity-proportional split, no L2/L1/L0 optimisation) — the §5.2
setting's reference points.

Both simulations follow the same **stepwise protocol**: ``reset()``
prepares a run, ``step()`` advances one T_L0 period, ``advance_period()``
generates the steps of one control period, ``steps()`` generates the
rest of the run, and ``finish()`` assembles the structured result.
``run()`` is a thin loop over that protocol. Observers
(:class:`~repro.sim.observers.SimulationObserver`) receive typed events
at every seam; the result arrays themselves are accumulated by recorder
observers riding the same interface, so streaming consumers see exactly
what the results see. Every per-run knob travels in one
:class:`~repro.sim.options.EngineOptions` (``engine_options=``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.common.errors import ConfigurationError, ControlError
from repro.common.validation import (
    require_cluster_failure_events,
    require_failure_events,
)
from repro.cluster.module import Module
from repro.cluster.specs import ClusterSpec, ModuleSpec
from repro.controllers.baselines import _BaselineBase, make_baseline
from repro.controllers.l0 import L0Controller
from repro.controllers.l1 import ComputerBehaviorMap, L1Controller
from repro.controllers.l2 import L2Controller, ModuleCostMap
from repro.controllers.params import L0Params, L1Params, L2Params
from repro.controllers.stats import ControllerStats
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
)
from repro.workload.trace import ArrivalTrace

if TYPE_CHECKING:
    from repro.sim.kernels import ClusterVectorExecutor

#: The module engine's ``gamma_modules``: one module takes every arrival.
_ONE_MODULE = np.ones(1)
_ONE_MODULE.setflags(write=False)


class _SimulationBase:
    """Protocol plumbing shared by the module and cluster engines.

    Subclasses set ``engine_options``, ``trace``, ``substeps``,
    ``l0_params``, ``l1_params`` and ``module_overrides``, keep their
    per-run state (with a step counter ``k``, ``l0_marks``, a ``result``
    slot, the ``sink``, the ``fine_predictor`` and the
    ``vector_executor``) in ``_state``, and implement ``reset``/``step``/
    ``finish`` plus :meth:`_override_target`.
    """

    _state = None

    @property
    def kernel(self) -> str:
        """The control-period kernel this run executes on."""
        return self.engine_options.kernel

    @property
    def decision_deadline(self) -> "float | None":
        """Per-boundary wall-time budget (see :meth:`set_decision_deadline`)."""
        return self.engine_options.decision_deadline

    @decision_deadline.setter
    def decision_deadline(self, seconds: "float | None") -> None:
        self.engine_options.decision_deadline = seconds

    @property
    def metrics(self):
        """Attached metrics registry (see :meth:`set_telemetry`)."""
        return self.engine_options.metrics

    @metrics.setter
    def metrics(self, value) -> None:
        self.engine_options.metrics = value

    @property
    def tracer(self):
        """Attached decision tracer (see :meth:`set_telemetry`)."""
        return self.engine_options.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.engine_options.tracer = value

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
        (its event and theirs carry ``held=True``); an L1 that
        individually blows the remaining budget holds just its module.
        ``None`` (the default) disables the budget and skips every clock
        read.
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

    def advance_period(self) -> Iterator:
        """Generate the remaining steps of the current control period."""
        state = self._require_state()
        if state.k >= self.total_steps:
            return
        period = state.k // self.substeps
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

    def _require_state(self):
        if self._state is None:
            self.reset()
        return self._state

    # -- the shared per-module pieces -----------------------------------

    def _begin_period(
        self, runner: ModuleShardRunner, boundary: ModuleBoundaryInput
    ) -> L1DecisionEvent:
        """One module's boundary decision, with its L1 telemetry.

        Times the runner's ``begin_period`` into
        ``repro_decision_seconds{level="l1"}`` and an ``l1-lookahead``
        span. Detached telemetry takes no clock reads.
        """
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if not tracing and metrics is None:
            return runner.begin_period(boundary)
        t0 = time.perf_counter()
        event = runner.begin_period(boundary)
        wall = time.perf_counter() - t0
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
                lookahead=0 if runner.is_baseline else self.l1_params.horizon,
                held=event.held,
                forced=event.forced,
            )
        return event

    def _emit_l0_bank(self, runners, period: int) -> None:
        """One ``l0-bank`` span per module for the period just closed.

        L0 wall time comes from the bank's own accounting (the
        controllers time themselves), so the step path gains no clock
        reads: each span is the delta since the module's last mark.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        marks = self._state.l0_marks
        for runner in runners:
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

    def _step_vector(self, state, *step_args) -> "list[StepEvent]":
        """One batched step of every module and its step-event fan-out.

        Stock recorders fold the executor's row stats (none when it
        skipped the fold) instead of re-scanning each response row.
        """
        vector = state.vector_executor
        events = vector.step_all(*step_args)
        row_stats = vector.step_stats
        for row, event in enumerate(events):
            state.sink.on_step(event, row_stats[row] if row_stats else None)
        return events

    def _finals(self, state, runners) -> "list[ModuleFinalization]":
        """Every runner's aggregates, with the executor's mirrors written back."""
        if state.vector_executor is not None:
            state.vector_executor.flush()
        return [runner.finalize() for runner in runners]

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


class ModuleSimulation(_SimulationBase):
    """One module under the LLC hierarchy or a baseline policy.

    Steps one :class:`~repro.sim.shard.ModuleShardRunner` (module 0,
    no L2): at each boundary the module controller observes
    the closed interval and the L1 takes its arrival-rate set-points
    from its own predictor; each step hands the runner the bin's
    arrivals and the module's fine-grained forecast. On the ``vector``
    kernel a one-row :class:`~repro.sim.kernels.ClusterVectorExecutor`
    takes the steps, as in a cluster run.
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
        self.substeps = round(self.l1_params.period / self.l0_params.period)
        if self.substeps < 1:
            raise ConfigurationError("T_L1 must cover at least one T_L0")
        validated_events = require_failure_events(failure_events, spec.size)
        if validated_events and baseline is not None:
            raise ConfigurationError(
                "failure injection is supported in hierarchy mode only"
            )
        self.failure_events = tuple(
            sorted(validated_events, key=lambda e: e[0])
        )
        self.baseline = baseline
        if baseline is None:
            if behavior_maps is None:
                # Route training through the artifact layer: identical
                # computers share one map, repeated constructions reuse
                # the process memo, and ``map_cache`` persists the
                # artifacts across processes and runs.
                provider = self.engine_options.map_provider or MapProvider(
                    cache=map_cache
                )
                behavior_maps = provider.behavior_maps(
                    spec, self.l0_params, self.l1_params
                )
            self.l1: L1Controller | None = L1Controller(
                spec, behavior_maps, self.l1_params, self.l0_params
            )
            # Like the L1, the L0 bank lives as long as the simulation:
            # each run's runner drives these same controllers.
            self._l0_bank = [L0Controller(c, self.l0_params) for c in spec.computers]
        else:
            self.l1 = None
            self._l0_bank = []
        if work_series is None:
            work_series = np.full(len(self.trace), self.engine_options.mean_work)
        if work_series.size != len(self.trace):
            raise ConfigurationError("work_series must align with the trace bins")
        self.work_series = work_series
        self.module_overrides: "dict[int, int]" = {}

    @property
    def module_controller(self):
        """The active module-level controller (L1 or baseline)."""
        return self.baseline if self.baseline is not None else self.l1

    def _override_target(self, module: int) -> "tuple[int, str]":
        if module != 0:
            raise ConfigurationError(
                f"module plants have a single module (index 0), got {module}"
            )
        return self.spec.size, "the module"

    # ------------------------------------------------------------------
    # Stepwise protocol
    # ------------------------------------------------------------------

    def reset(
        self, observers: "Iterable[SimulationObserver]" = ()
    ) -> "ModuleSimulation":
        """Prepare a fresh run: new plant, recorders, tuned predictors."""
        recorder = ModuleRecorder(
            self.total_steps,
            self.spec.size,
            self.periods,
            window=self.engine_options.recorder_window,
            target_response=self.l0_params.target_response,
            step_seconds=self.l0_params.period,
        )
        runner = ModuleShardRunner(
            module_index=0,
            plant=Module(self.spec, initially_on=True),
            controller=self.module_controller,
            l0_bank=self._l0_bank,
            l0_params=self.l0_params,
            mean_work=self.engine_options.mean_work,
            is_baseline=self.baseline is not None,
            failure_events=self.failure_events,
            kernel=self.kernel,
        )
        state = _ModuleRunState(
            runner=runner,
            recorder=recorder,
            sink=ObserverList(
                (recorder, *observers),
                target_response=self.l0_params.target_response,
            ),
            fine_predictor=WorkloadPredictor() if self.baseline is None else None,
            vector_executor=self._vector_executor([runner]),
        )
        self._tune_predictor(self.module_controller, state.fine_predictor)
        self._state = state
        state.sink.on_run_start(self)
        return self

    def step(self) -> StepEvent:
        """Advance one T_L0 period; returns the step's event."""
        state = self._require_state()
        if state.k >= self.total_steps:
            raise ControlError("simulation already finished; call reset()")
        k = state.k
        now = k * self.l0_params.period
        work = float(self.work_series[k])
        vector = state.vector_executor
        if k % self.substeps == 0:
            if vector is not None:
                vector.flush(full=False)
            event = self._begin_period(state.runner, self._boundary(state, k, work))
            state.sink.on_l1_decision(event)
            if vector is not None:
                vector.pull()
        arrivals = float(self.trace.counts[k])
        state.interval_arrivals += arrivals
        forecast = self._fine_forecast(state, arrivals)
        if vector is not None:
            (event,) = self._step_vector(
                state, k, now, np.array([arrivals]), work, _ONE_MODULE, forecast
            )
        else:
            event = state.runner.step(
                ModuleStepInput(
                    step=k,
                    time=now,
                    share=arrivals,
                    gamma_module=1.0,
                    forecast=forecast,
                    work=work,
                )
            )
            state.sink.on_step(event)
        if (k + 1) % self.substeps == 0 or k + 1 == self.total_steps:
            period = k // self.substeps
            self._emit_l0_bank((state.runner,), period)
            state.sink.on_period_end(
                PeriodEvent(period=period, arrivals=state.interval_arrivals)
            )
        state.k = k + 1
        return event

    def _boundary(
        self, state: "_ModuleRunState", k: int, work: float
    ) -> ModuleBoundaryInput:
        """Close the interval and take the L1 set-points locally.

        The controller observes the interval here, so the runner gets
        ``observed_arrivals=None``. The deadline budget covers the
        set-point forecast as well as the decision.
        """
        controller = self.module_controller
        if k > 0:
            controller.observe(state.interval_arrivals, work)
        prediction = float(controller.predictor.forecast(1)[0])
        state.interval_arrivals = 0.0
        deadline = self.decision_deadline
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        rate_hat = rate_next = delta = 0.0
        if self.baseline is None:
            rate_hat, rate_next, delta = self.l1.set_points()
        return ModuleBoundaryInput(
            period=k // self.substeps,
            now=k * self.l0_params.period,
            rate_hat=rate_hat,
            rate_next=rate_next,
            delta=delta,
            prediction=prediction,
            deadline_at=deadline_at,
            force_on=self.module_overrides.get(0),
        )

    def finish(self) -> ModuleRunResult:
        """Assemble the structured result once all steps are taken."""
        state = self._require_state()
        if state.k < self.total_steps:
            raise ControlError(
                f"run not finished: {state.k}/{self.total_steps} steps taken"
            )
        if state.result is not None:
            return state.result
        (final,) = self._finals(state, [state.runner])
        result = self._module_result(self.spec, state.recorder, final)
        state.result = result
        state.sink.on_run_end(result)
        return result

    def live_summary(self) -> RunSummary:
        """Headline metrics over the steps taken so far (mid-run safe).

        Uses the same online :class:`StreamStats` aggregates and the same
        arithmetic as :meth:`finish`/:meth:`~repro.sim.results.ModuleRunResult.summary`,
        so at end of run the two agree bit for bit.
        """
        state = self._state
        if state is None:
            raise ControlError("no active run; call reset() first")
        return fold_summary(
            self._finals(state, [state.runner]),
            stream_quality([state.recorder.stream]),
        )

    def _tune_predictor(self, controller, fine_predictor=None) -> None:
        """Tune the Kalman filters on the initial workload portion (§4.3)."""
        warmup = self.engine_options.warmup_intervals
        if warmup <= 0:
            return
        l1_counts = (
            self.trace.rebinned(self.l1_params.period).counts[:warmup]
        )
        controller.predictor.tune_on(l1_counts)
        controller.work_filter.observe(self.engine_options.mean_work)
        if fine_predictor is not None:
            fine_predictor.tune_on(self.trace.counts[: warmup * self.substeps])


@dataclass
class _ModuleRunState:
    """Mutable per-run state for :class:`ModuleSimulation`."""

    runner: ModuleShardRunner
    recorder: ModuleRecorder
    sink: ObserverList
    #: The fine-grained rate predictor the L0 reads (hierarchy only).
    fine_predictor: "WorkloadPredictor | None"
    #: Batched step engine (vector kernel only; None on scalar).
    vector_executor: "ClusterVectorExecutor | None" = None
    interval_arrivals: float = 0.0
    k: int = 0
    #: Per-module cumulative L0 wall/states already attributed to
    #: emitted l0-bank spans.
    l0_marks: dict = field(default_factory=dict)
    result: "ModuleRunResult | None" = None


class ClusterSimulation(_SimulationBase):
    """A cluster of modules under the full L2/L1/L0 hierarchy.

    Passing ``baseline=`` (a registered baseline name such as
    ``"threshold-dvfs"`` or a ``ModuleSpec -> controller`` factory) pins
    every module to that heuristic policy instead: the global stream is
    split by static full-speed capacity shares and each module is run by
    its own baseline controller — no abstraction-map training, no
    lookahead. This is the §5.2 analogue of the module-level baselines,
    which the original run-to-completion API could not express.

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
        self.substeps = round(self.l2_params.period / self.l0_params.period)
        if abs(self.l2_params.period - self.l1_params.period) > 1e-9:
            raise ConfigurationError(
                "this engine runs L2 and L1 on the same period (as the paper does)"
            )
        if baseline_params and baseline is None:
            raise ConfigurationError(
                "baseline_params given without a baseline policy"
            )
        validated_events = require_cluster_failure_events(
            failure_events, spec.module_count, None
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
        self.baselines: "list[_BaselineBase] | None" = None
        self._behavior_maps: list[list[ComputerBehaviorMap]] = []
        self.module_maps: list[ModuleCostMap] = []
        self.module_overrides: "dict[int, int]" = {}
        self._state: "_ClusterRunState | None" = None
        if baseline is not None:
            if callable(baseline):
                factory = baseline
            else:
                factory = lambda module_spec: make_baseline(  # noqa: E731
                    baseline, module_spec, **(baseline_params or {})
                )
            self.baselines = [factory(m) for m in spec.modules]
            for controller in self.baselines:
                if not isinstance(controller, _BaselineBase):
                    raise ConfigurationError(
                        "cluster baseline factory must build baseline "
                        f"controllers, got {type(controller).__name__}"
                    )
            self.l2: L2Controller | None = None
            self._global_predictor = WorkloadPredictor()
            # Static capacity-proportional split of the global stream.
            capacities = np.array(
                [
                    m.max_service_rate(self.engine_options.mean_work)
                    for m in spec.modules
                ]
            )
            self._static_gamma = capacities / capacities.sum()
            return
        # Obtain (or accept) the per-module approximation architectures
        # through the trained-map artifact layer: every distinct content
        # digest trains at most once per cache, identical computers and
        # modules share instances within this simulation, and
        # ``map_cache`` persists the artifacts across processes and runs
        # (sweep workers load trained maps, never retrain).
        provider = self.engine_options.map_provider or MapProvider(
            cache=map_cache
        )
        for module_spec in spec.modules:
            self._behavior_maps.append(
                provider.behavior_maps(
                    module_spec, self.l0_params, self.l1_params
                )
            )
        if module_maps is None:
            for module_spec, maps in zip(spec.modules, self._behavior_maps):
                self.module_maps.append(
                    provider.module_map(
                        module_spec, maps, self.l1_params, self.l0_params
                    )
                )
        else:
            if len(module_maps) != spec.module_count:
                raise ConfigurationError("need one module map per module")
            self.module_maps = list(module_maps)
        self.l2 = L2Controller(self.module_maps, self.l2_params)

    def _override_target(self, module: int) -> "tuple[int, str]":
        if not isinstance(module, int) or isinstance(module, bool) or not (
            0 <= module < self.spec.module_count
        ):
            raise ConfigurationError(
                f"override module index must be in [0, {self.spec.module_count}), "
                f"got {module!r}"
            )
        return self.spec.modules[module].size, f"module {module}"

    # ------------------------------------------------------------------
    # Stepwise protocol
    # ------------------------------------------------------------------

    def reset(
        self, observers: "Iterable[SimulationObserver]" = ()
    ) -> "ClusterSimulation":
        """Prepare a fresh run: plants, controller banks, tuned filters."""
        p = self.spec.module_count
        steps = self.total_steps
        periods = self.periods
        plants = [Module(s, initially_on=True) for s in self.spec.modules]
        if self.baselines is None:
            l1s = [
                L1Controller(
                    module_spec, maps, self.l1_params, self.l0_params
                )
                for module_spec, maps in zip(self.spec.modules, self._behavior_maps)
            ]
            l0_banks = [
                [L0Controller(c, self.l0_params) for c in s.computers]
                for s in self.spec.modules
            ]
            fine_predictor = WorkloadPredictor()
        else:
            l1s = list(self.baselines)
            l0_banks = [[] for _ in range(p)]
            fine_predictor = None
        window = self.engine_options.recorder_window
        cluster_recorder = ClusterRecorder(periods, p, window=window)
        module_recorders = [
            ModuleRecorder(
                steps,
                s.size,
                periods,
                module=i,
                window=window,
                target_response=self.l0_params.target_response,
                step_seconds=self.l0_params.period,
            )
            for i, s in enumerate(self.spec.modules)
        ]
        self._tune_predictors(l1s, fine_predictor)
        runners = [
            ModuleShardRunner(
                module_index=i,
                plant=plants[i],
                controller=l1s[i],
                l0_bank=l0_banks[i],
                l0_params=self.l0_params,
                mean_work=self.engine_options.mean_work,
                is_baseline=self.baselines is not None,
                failure_events=tuple(
                    (time, computer, kind)
                    for time, module_index, computer, kind in self.failure_events
                    if module_index == i
                ),
                kernel=self.kernel,
            )
            for i in range(p)
        ]
        state = _ClusterRunState(
            cluster_recorder=cluster_recorder,
            module_recorders=module_recorders,
            sink=ObserverList(
                (cluster_recorder, *module_recorders, *observers),
                target_response=self.l0_params.target_response,
            ),
            fine_predictor=fine_predictor,
            gamma_modules=(
                np.full(p, 1.0 / p)
                if self.baselines is None
                else self._static_gamma.copy()
            ),
            interval_module=np.zeros(p),
            runners=runners,
            vector_executor=self._vector_executor(runners),
        )
        self._state = state
        state.sink.on_run_start(self)
        return self

    def step(self) -> "list[StepEvent]":
        """Advance one T_L0 period; returns one event per module."""
        state = self._require_state()
        k = state.k
        if k >= self.total_steps:
            raise ControlError("simulation already finished; call reset()")
        vector = state.vector_executor
        if k % self.substeps == 0:
            batched_observe = vector is not None and self.baselines is not None
            if vector is not None:
                vector.flush(full=False)
            if batched_observe:
                self._vector_baseline_observe(state, k)
            l2_event, boundaries = self._boundary_inputs(
                state, k, observed_consumed=batched_observe
            )
            state.sink.on_l2_decision(l2_event)
            for runner, boundary in zip(state.runners, boundaries):
                state.sink.on_l1_decision(self._begin_period(runner, boundary))
            if vector is not None:
                vector.pull()
        if vector is not None:
            events = self._step_vector(state, *self._step_arrays(state, k))
        else:
            events = []
            for runner, step_input in zip(state.runners, self._step_inputs(state, k)):
                event = runner.step(step_input)
                state.sink.on_step(event)
                events.append(event)
        if (k + 1) % self.substeps == 0 or k + 1 == self.total_steps:
            period_index = k // self.substeps
            self._emit_l0_bank(state.runners, period_index)
            state.sink.on_period_end(
                PeriodEvent(
                    period=period_index,
                    arrivals=state.interval_global,
                    module_arrivals=state.interval_module.copy(),
                )
            )
        state.k = k + 1
        return events

    def _vector_baseline_observe(
        self, state: "_ClusterRunState", k: int
    ) -> None:
        """Boundary Kalman observes, batched (vector kernel, baseline).

        Performs the scalar boundary's predictor updates — the global
        filter plus every module controller's arrival filter and work
        EWMA — in one batched pass, before :meth:`_boundary_inputs`
        builds the boundary inputs with ``observed_arrivals=None`` so
        the runners do not observe twice.
        """
        if k == 0:
            return
        from repro.sim.kernels import batched_predictor_observe

        predictors = [self._global_predictor] + [
            runner.controller.predictor for runner in state.runners
        ]
        values = [state.interval_global] + [
            float(v) for v in state.interval_module
        ]
        batched_predictor_observe(predictors, values)
        work = (
            float(self.work_series[k])
            if self.work_series is not None
            else self.engine_options.mean_work
        )
        if work > 0:
            for runner in state.runners:
                runner.controller.work_filter.observe(float(work))

    def _boundary_inputs(
        self,
        state: "_ClusterRunState",
        k: int,
        observed_consumed: bool = False,
    ) -> "tuple[L2DecisionEvent, list[ModuleBoundaryInput]]":
        """Close the previous period and compute every module's set-points.

        ``observed_consumed`` marks that the vector kernel already fed
        the interval's arrivals to every predictor (batched), so the
        boundary must not observe them a second time.
        """
        index = k // self.substeps
        now = k * self.l0_params.period
        if self.work_series is not None:
            work = float(self.work_series[k])
            boundary_work: "float | None" = work
        else:
            work = self.engine_options.mean_work
            boundary_work = None
        p = self.spec.module_count
        observed = state.interval_module.copy() if k > 0 else None
        # The deadline budget is shared by the whole boundary: one
        # absolute wall-clock instant the L2 decision and every module's
        # L1 decision must beat. ``None`` (batch runs) skips every clock
        # read, keeping the operation sequence byte-identical.
        deadline_at = (
            time.monotonic() + self.decision_deadline
            if self.decision_deadline is not None
            else None
        )
        if self.baselines is not None:
            if k > 0 and not observed_consumed:
                self._global_predictor.observe(state.interval_global)
            global_prediction = float(self._global_predictor.forecast(1)[0])
            state.interval_global = 0.0
            state.interval_module[:] = 0.0
            l2_event = L2DecisionEvent(
                period=index,
                gamma=state.gamma_modules.copy(),
                prediction=global_prediction,
            )
            boundaries = [
                ModuleBoundaryInput(
                    period=index,
                    now=now,
                    observed_arrivals=(
                        None
                        if observed is None or observed_consumed
                        else float(observed[i])
                    ),
                    work=boundary_work,
                    deadline_at=deadline_at,
                    force_on=self.module_overrides.get(i),
                )
                for i in range(p)
            ]
            return l2_event, boundaries
        if k > 0:
            self.l2.observe(state.interval_global, work)
        global_prediction = float(self.l2.predictor.forecast(1)[0])
        state.interval_global = 0.0
        state.interval_module[:] = 0.0
        queue_avgs = np.array(
            [runner.plant.queue_lengths.mean() for runner in state.runners]
        )
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        timed = tracing or metrics is not None
        t0 = time.perf_counter() if timed else None
        l2_decision = self.l2.act(queue_avgs, state.gamma_modules)
        l2_wall = time.perf_counter() - t0 if timed else 0.0
        l2_held = deadline_at is not None and time.monotonic() > deadline_at
        if not l2_held:
            state.gamma_modules = l2_decision.gamma
        l2_event = L2DecisionEvent(
            period=index,
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
                period=index,
                wall_us=l2_wall * 1e6,
                gamma=[round(float(g), 6) for g in state.gamma_modules],
                prediction=round(global_prediction, 6),
                held=l2_held,
            )
        # Each module's load estimate is its share of the global
        # forecast (the paper's lambda_hat_i = gamma_i * lambda_hat_g),
        # so gamma reassignments do not read as workload swings to the
        # L1 Kalman filters.
        global_counts = self.l2.predictor.forecast(2)
        global_delta = self.l2.predictor.band.delta
        boundaries = []
        for i in range(p):
            rate_hat = (
                state.gamma_modules[i] * global_counts[0] / self.l2_params.period
            )
            rate_next = (
                state.gamma_modules[i] * global_counts[1] / self.l2_params.period
            )
            delta = (
                state.gamma_modules[i] * global_delta / self.l2_params.period
                if self.l1_params.use_uncertainty_band
                else 0.0
            )
            boundaries.append(
                ModuleBoundaryInput(
                    period=index,
                    now=now,
                    observed_arrivals=(
                        None if observed is None else float(observed[i])
                    ),
                    rate_hat=rate_hat,
                    rate_next=rate_next,
                    delta=delta,
                    prediction=state.gamma_modules[i] * global_counts[0],
                    work=boundary_work,
                    deadline_at=deadline_at,
                    hold=l2_held,
                    force_on=self.module_overrides.get(i),
                )
            )
        return l2_event, boundaries

    def _step_inputs(
        self, state: "_ClusterRunState", k: int
    ) -> "list[ModuleStepInput]":
        """Advance the cluster accumulators; build per-module step inputs."""
        p = self.spec.module_count
        arrivals = float(self.trace.counts[k])
        state.interval_global += arrivals
        shares = state.gamma_modules * arrivals
        now = k * self.l0_params.period
        work = (
            float(self.work_series[k]) if self.work_series is not None else None
        )
        forecast = self._fine_forecast(state, arrivals)
        inputs = []
        for i in range(p):
            state.interval_module[i] += shares[i]
            inputs.append(
                ModuleStepInput(
                    step=k,
                    time=now,
                    share=shares[i],
                    gamma_module=state.gamma_modules[i],
                    forecast=forecast,
                    work=work,
                )
            )
        return inputs

    def _step_arrays(self, state: "_ClusterRunState", k: int) -> tuple:
        """Array-form twin of :meth:`_step_inputs` for the vector path.

        Advances the same cluster accumulators (identical
        elementwise arithmetic) and takes the same fine-grained
        forecast, but skips building per-module ``ModuleStepInput``
        objects: returns the :meth:`ClusterVectorExecutor.step_all`
        arguments.
        """
        arrivals = float(self.trace.counts[k])
        state.interval_global += arrivals
        shares = state.gamma_modules * arrivals
        state.interval_module += shares
        forecast = self._fine_forecast(state, arrivals)
        work = (
            float(self.work_series[k]) if self.work_series is not None else None
        )
        return (
            k,
            k * self.l0_params.period,
            shares,
            work,
            state.gamma_modules,
            forecast,
        )

    def finish(self) -> ClusterRunResult:
        """Assemble the structured result once all steps are taken."""
        state = self._require_state()
        if state.k < self.total_steps:
            raise ControlError(
                f"run not finished: {state.k}/{self.total_steps} steps taken"
            )
        if state.result is not None:
            return state.result
        finals = self._finals(state, state.runners)
        module_results = [
            self._module_result(module_spec, recorder, final)
            for module_spec, recorder, final in zip(
                self.spec.modules, state.module_recorders, finals
            )
        ]
        cluster = state.cluster_recorder
        result = ClusterRunResult(
            l2_period=self.l2_params.period,
            module_names=[m.name for m in self.spec.modules],
            global_arrivals=cluster.global_arrivals,
            global_predictions=cluster.global_predictions,
            gamma_history=cluster.gamma_history,
            total_computers_on=cluster.per_module_on.sum(axis=1),
            per_module_on=cluster.per_module_on,
            target_response=self.l0_params.target_response,
            module_results=module_results,
            l2_stats=self.l2.stats if self.l2 is not None else ControllerStats(),
        )
        state.result = result
        state.sink.on_run_end(result)
        return result

    def live_summary(self) -> RunSummary:
        """Cluster-wide headline metrics over the steps taken so far.

        Takes a non-destructive ``finalize`` snapshot of every module
        runner (the same pure reads the end-of-run result uses), with
        the same online :class:`StreamStats` aggregates and the same
        merge arithmetic as
        :meth:`finish`/:meth:`~repro.sim.results.ClusterRunResult.summary`,
        so at end of run the two agree bit for bit.
        """
        state = self._state
        if state is None:
            raise ControlError("no active run; call reset() first")
        if state.result is not None:
            return state.result.summary()
        return fold_summary(
            self._finals(state, state.runners),
            stream_quality([recorder.stream for recorder in state.module_recorders]),
            self.l2.stats.total_seconds if self.l2 is not None else 0.0,
        )

    def _tune_predictors(self, l1s, fine_predictor) -> None:
        """Tune L2 and L1 Kalman filters on the initial workload portion."""
        warmup = self.engine_options.warmup_intervals
        if warmup <= 0:
            return
        mean_work = self.engine_options.mean_work
        l2_counts = self.trace.rebinned(self.l2_params.period).counts[:warmup]
        if self.baselines is not None:
            self._global_predictor.tune_on(l2_counts)
            for i, controller in enumerate(l1s):
                controller.predictor.tune_on(l2_counts * self._static_gamma[i])
                controller.work_filter.observe(mean_work)
            return
        self.l2.predictor.tune_on(l2_counts)
        self.l2.work_filter.observe(mean_work)
        p = self.spec.module_count
        for l1 in l1s:
            l1.predictor.tune_on(l2_counts / p)
            l1.work_filter.observe(mean_work)
        fine_predictor.tune_on(self.trace.counts[: warmup * self.substeps])


@dataclass
class _ClusterRunState:
    """Mutable per-run state for :class:`ClusterSimulation`.

    Per-module mutable state (plant, controllers, alpha/gamma) lives in
    the :class:`~repro.sim.shard.ModuleShardRunner` objects in
    ``runners``.
    """

    cluster_recorder: ClusterRecorder
    module_recorders: list
    sink: ObserverList
    fine_predictor: "WorkloadPredictor | None"
    gamma_modules: np.ndarray
    interval_module: np.ndarray
    runners: "list[ModuleShardRunner]"
    #: Batched step engine (vector kernel only; None on scalar).
    vector_executor: "ClusterVectorExecutor | None" = None
    interval_global: float = 0.0
    k: int = 0
    result: "ClusterRunResult | None" = None
    #: Per-module cumulative L0 wall/states already attributed to
    #: emitted l0-bank spans.
    l0_marks: dict = field(default_factory=dict)
