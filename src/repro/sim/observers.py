"""Observer hooks for the stepwise simulation protocol.

The engine (:mod:`repro.sim.engine`) advances in explicit steps and
emits typed events at each seam of the control hierarchy:

* :meth:`SimulationObserver.on_l1_decision` — a module controller (L1 or
  a baseline) just reconfigured its module;
* :meth:`SimulationObserver.on_l2_decision` — the cluster controller
  just re-divided the workload across modules;
* :meth:`SimulationObserver.on_step` — one computer-module advanced one
  T_L0 fluid step;
* :meth:`SimulationObserver.on_period_end` — one T_L1/T_L2 period
  closed (all arrivals for it are accounted).

Stats collection is itself an observer: the engine attaches a
:class:`ModuleRecorder` (or :class:`ClusterRecorder`) that accumulates
the structured time series returned by ``run()``. User observers ride
the same seam, so progress reporting, streaming metrics, and tests see
exactly what the result arrays see — without the engine holding any
side channels. Anything that emits these events can drive the same
consumers; the live service (:mod:`repro.service`) does.

Recorders run in one of two storage modes. By default every signal is
preallocated for the whole horizon (``np.zeros((steps, size))`` and
friends) — fine for a day, ruinous for a month of 30-second steps.
Passing ``window=`` keeps each signal in a bounded ring buffer
(:class:`SeriesBuffer`) holding only the most recent entries, while a
:class:`StreamStats` accumulates the summary aggregates (response
mean/max, violations, power mean/max, energy, machines on) online. Both
modes accumulate the same :class:`StreamStats` with the same per-event
arithmetic, which is what makes windowed and full runs produce
bit-identical :class:`~repro.sim.results.RunSummary` payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepEvent:
    """One T_L0 fluid step of one module.

    ``module`` is the module's index within the cluster (0 for
    single-module runs). Array fields have one entry per computer.
    """

    step: int
    time: float
    module: int
    arrivals: float
    frequencies: np.ndarray
    responses: np.ndarray
    queues: np.ndarray
    power: float


@dataclass(frozen=True)
class L1DecisionEvent:
    """A module-level (L1 or baseline) reconfiguration.

    ``held`` marks a decision that missed its deadline budget: the
    previous alpha/gamma stayed in force (the event carries them).
    ``forced`` marks a manual operator override pinning the machines-on
    count. Batch runs never set either.
    """

    period: int
    module: int
    alpha: np.ndarray
    gamma: np.ndarray
    prediction: float  # forecast arrivals for the coming period
    held: bool = False
    forced: bool = False


@dataclass(frozen=True)
class L2DecisionEvent:
    """A cluster-level workload re-division.

    ``held`` marks a decision that missed its deadline budget: the
    previous per-module gamma split stayed in force.
    """

    period: int
    gamma: np.ndarray  # per-module load shares
    prediction: float  # forecast global arrivals for the coming period
    held: bool = False


@dataclass(frozen=True)
class PeriodEvent:
    """A closed control period with its realised arrivals.

    ``arrivals`` is the period's total and ``module_arrivals`` its
    per-module split; the engines always fill both, with one entry on a
    module run.
    """

    period: int
    arrivals: float
    module_arrivals: np.ndarray | None = None


class SimulationObserver:
    """Base observer: every hook is a no-op; override what you need."""

    def on_run_start(self, simulation) -> None:
        """The run is about to begin; ``simulation`` is fully reset."""

    def on_l1_decision(self, event: L1DecisionEvent) -> None:
        """A module controller decided alpha/gamma for the next period."""

    def on_l2_decision(self, event: L2DecisionEvent) -> None:
        """The L2 controller re-divided load across modules."""

    def on_step(self, event: StepEvent) -> None:
        """One module advanced one T_L0 fluid step."""

    def on_period_end(self, event: PeriodEvent) -> None:
        """A control period closed; its arrivals are final."""

    def on_run_end(self, result) -> None:
        """The run finished; ``result`` is the structured result."""


class ObserverList:
    """Fan-out helper: broadcasts each event to every observer in order.

    :meth:`on_step` and :meth:`on_l1_decision` are the engines' two
    per-module fan-outs. Each skips observers whose hook is the base
    no-op and hands each event to the stock :class:`ModuleRecorder` of
    the event's module only (the recorder would discard any other
    module's events); every other observer, :class:`ModuleRecorder`
    subclasses included, gets every event. ``target_response`` is the
    SLA target that ``row_stats`` passed to :meth:`on_step` were reduced
    against: a stock recorder with the same target folds them via
    :meth:`ModuleRecorder.on_step_fast`, bit-identically to re-scanning
    the row.
    """

    def __init__(
        self,
        observers: "tuple[SimulationObserver, ...]",
        target_response: "float | None" = None,
    ) -> None:
        self.observers = tuple(observers)
        self.target_response = target_response
        #: Per-module step routes: ``(on_step, on_step_fast | None)``
        #: pairs in observer order, built on a module's first event.
        self._step_routes: "dict[int, list]" = {}
        #: Per-module L1 routes: ``on_l1_decision`` methods in observer
        #: order, built on a module's first event.
        self._l1_routes: "dict[int, list]" = {}

    def on_run_start(self, simulation) -> None:
        for observer in self.observers:
            observer.on_run_start(simulation)

    def on_l1_decision(self, event: L1DecisionEvent) -> None:
        route = self._l1_routes.get(event.module)
        if route is None:
            route = self._l1_routes[event.module] = [
                observer.on_l1_decision
                for observer in self._route(event.module, "on_l1_decision")
            ]
        for on_l1_decision in route:
            on_l1_decision(event)

    def on_l2_decision(self, event: L2DecisionEvent) -> None:
        for observer in self.observers:
            observer.on_l2_decision(event)

    def on_step(self, event: StepEvent, row_stats: "tuple | None" = None) -> None:
        route = self._step_routes.get(event.module)
        if route is None:
            route = self._step_routes[event.module] = [
                (observer.on_step, self._fast_fold(observer))
                for observer in self._route(event.module, "on_step")
            ]
        for on_step, on_step_fast in route:
            if on_step_fast is not None and row_stats is not None:
                on_step_fast(event, row_stats)
            else:
                on_step(event)

    def _route(self, module: int, hook: str) -> list:
        """The observers that get ``module``'s ``hook`` events, in order."""
        base = getattr(SimulationObserver, hook)
        return [
            observer
            for observer in self.observers
            if getattr(type(observer), hook, None) is not base
            and not (type(observer) is ModuleRecorder and observer.module != module)
        ]

    def _fast_fold(self, observer):
        """A stock recorder's ``on_step_fast`` when ``row_stats`` fit it, else None."""
        if (
            type(observer) is ModuleRecorder
            and observer.stream.target_response == self.target_response
        ):
            return observer.on_step_fast
        return None

    def on_period_end(self, event: PeriodEvent) -> None:
        for observer in self.observers:
            observer.on_period_end(event)

    def on_run_end(self, result) -> None:
        for observer in self.observers:
            observer.on_run_end(result)


class SeriesBuffer:
    """Storage for one recorded signal: whole-horizon or bounded ring.

    With ``window=None`` (or a window covering the horizon) this is a
    plain preallocated array indexed by step — exactly the original
    recorder layout, zero copies. With a smaller window, writes land in
    a ring of ``window`` slots and :meth:`view` returns the most recent
    entries in chronological order. Indices must arrive in
    non-decreasing order, which the engine's emission order guarantees.
    """

    def __init__(
        self,
        length: int,
        window: "int | None" = None,
        tail: "tuple[int, ...]" = (),
        fill: float = 0.0,
    ) -> None:
        self.length = int(length)
        capacity = (
            self.length if window is None else max(1, min(int(window), self.length))
        )
        self.capacity = capacity
        self.wrapped = capacity < self.length
        self._data = np.full((capacity, *tail), fill)
        self._written = 0

    def put(self, index: int, value) -> None:
        """Record ``value`` at step ``index`` (overwriting the oldest slot)."""
        self._data[index % self.capacity if self.wrapped else index] = value
        if index >= self._written:
            self._written = index + 1

    def slot(self, index: int) -> np.ndarray:
        """The storage row for step ``index``, for element-wise writes."""
        if index >= self._written:
            self._written = index + 1
        return self._data[index % self.capacity if self.wrapped else index]

    def view(self) -> np.ndarray:
        """Chronologically-ordered contents (the whole array when unwrapped)."""
        if not self.wrapped:
            return self._data
        if self._written <= self.capacity:
            return self._data[: self._written].copy()
        pivot = self._written % self.capacity
        return np.concatenate([self._data[pivot:], self._data[:pivot]])


@dataclass
class StreamStats:
    """Summary aggregates accumulated online, one event at a time.

    Both recorder storage modes update these with identical arithmetic
    in identical order, so the derived :class:`RunSummary` metrics are
    bit-for-bit equal between windowed and full runs (and across the
    scalar/vector kernels, which emit events in the same order).
    ``energy`` integrates power over the step width — the streaming
    counterpart of summing a full power array.
    """

    target_response: "float | None" = None
    step_seconds: float = 0.0
    response_sum: float = 0.0
    response_count: int = 0
    response_max: float = 0.0
    violation_count: int = 0
    power_sum: float = 0.0
    power_max: float = 0.0
    energy: float = 0.0
    computers_on_sum: float = 0.0
    decision_count: int = 0
    steps_seen: int = 0

    def observe_step(self, responses: np.ndarray, power: float) -> None:
        """Fold one step's response row and power draw into the aggregates."""
        finite = responses[~np.isnan(responses)]
        if finite.size:
            self.response_sum += float(finite.sum())
            self.response_count += int(finite.size)
            self.response_max = max(self.response_max, float(finite.max()))
            if self.target_response is not None:
                self.violation_count += int(
                    (finite > self.target_response).sum()
                )
        self.power_sum += power
        self.power_max = max(self.power_max, power)
        self.energy += power * self.step_seconds
        self.steps_seen += 1

    def fold_step(
        self,
        response_sum: float,
        response_count: int,
        response_max: float,
        violation_count: int,
        power: float,
    ) -> None:
        """Precomputed-row twin of :meth:`observe_step`.

        The vector kernel reduces every module's response row in one
        batched pass and hands the per-row aggregates here; the folding
        arithmetic is identical to :meth:`observe_step`, so the
        accumulated totals are bit-for-bit the same. ``violation_count``
        must have been computed against this stream's
        ``target_response`` (the engine routes mismatched recorders to
        the scalar path).
        """
        if response_count:
            self.response_sum += response_sum
            self.response_count += response_count
            self.response_max = max(self.response_max, response_max)
            if self.target_response is not None:
                self.violation_count += violation_count
        self.power_sum += power
        self.power_max = max(self.power_max, power)
        self.energy += power * self.step_seconds
        self.steps_seen += 1

    def observe_decision(self, machines_on: float) -> None:
        """Fold one control-period configuration into the aggregates."""
        self.computers_on_sum += machines_on
        self.decision_count += 1


class ModuleRecorder(SimulationObserver):
    """Accumulates the time series behind :class:`ModuleRunResult`.

    The engine attaches one per module run; cluster runs attach one per
    member module (filtering on the event's ``module`` index).
    ``window`` bounds storage to the last ``window`` steps and periods;
    summary aggregates stream into :attr:`stream` either way.
    """

    def __init__(
        self,
        steps: int,
        size: int,
        periods: int,
        module: int = 0,
        window: "int | None" = None,
        target_response: "float | None" = None,
        step_seconds: float = 0.0,
    ) -> None:
        self.module = module
        self.stream = StreamStats(
            target_response=target_response, step_seconds=step_seconds
        )
        self._arrivals = SeriesBuffer(steps, window)
        self._frequencies = SeriesBuffer(steps, window, tail=(size,))
        self._responses = SeriesBuffer(steps, window, tail=(size,), fill=np.nan)
        self._queues = SeriesBuffer(steps, window, tail=(size,))
        self._power = SeriesBuffer(steps, window)
        self._l1_arrivals = SeriesBuffer(periods, window)
        self._l1_predictions = SeriesBuffer(periods, window)
        self._computers_on = SeriesBuffer(periods, window)

    # The result containers read these as plain arrays; in full mode the
    # views ARE the preallocated arrays (no copies), in windowed mode
    # they are the chronological tail of the run.
    arrivals = property(lambda self: self._arrivals.view())
    frequencies = property(lambda self: self._frequencies.view())
    responses = property(lambda self: self._responses.view())
    queues = property(lambda self: self._queues.view())
    power = property(lambda self: self._power.view())
    l1_arrivals = property(lambda self: self._l1_arrivals.view())
    l1_predictions = property(lambda self: self._l1_predictions.view())
    computers_on = property(lambda self: self._computers_on.view())

    def on_step(self, event: StepEvent) -> None:
        if event.module != self.module:
            return
        k = event.step
        self._arrivals.put(k, event.arrivals)
        self._frequencies.put(k, event.frequencies)
        self._responses.put(k, event.responses)
        self._queues.put(k, event.queues)
        self._power.put(k, event.power)
        self.stream.observe_step(event.responses, event.power)

    def on_step_fast(self, event: StepEvent, row_stats: tuple) -> None:
        """Vector-kernel entry point: same puts, precomputed stream fold.

        ``row_stats`` is ``(sum, count, max, violations)`` for this
        event's response row, reduced in the kernel's batched pass.
        :class:`ObserverList` only routes events for
        this recorder's own module here, so the module filter is
        skipped.
        """
        k = event.step
        self._arrivals.put(k, event.arrivals)
        self._frequencies.put(k, event.frequencies)
        self._responses.put(k, event.responses)
        self._queues.put(k, event.queues)
        self._power.put(k, event.power)
        self.stream.fold_step(*row_stats, event.power)

    def on_l1_decision(self, event: L1DecisionEvent) -> None:
        if event.module != self.module:
            return
        self._l1_predictions.put(event.period, event.prediction)
        on_count = event.alpha.sum()
        self._computers_on.put(event.period, on_count)
        self.stream.observe_decision(float(on_count))

    def on_period_end(self, event: PeriodEvent) -> None:
        self._l1_arrivals.put(event.period, event.module_arrivals[self.module])


class ClusterRecorder(SimulationObserver):
    """Accumulates the cluster-level series behind :class:`ClusterRunResult`.

    ``window`` bounds storage to the last ``window`` control periods
    (the per-module step windows live in the :class:`ModuleRecorder`\\ s).
    """

    def __init__(
        self, periods: int, module_count: int, window: "int | None" = None
    ) -> None:
        self._global_arrivals = SeriesBuffer(periods, window)
        self._global_predictions = SeriesBuffer(periods, window)
        self._gamma_history = SeriesBuffer(periods, window, tail=(module_count,))
        self._per_module_on = SeriesBuffer(periods, window, tail=(module_count,))

    global_arrivals = property(lambda self: self._global_arrivals.view())
    global_predictions = property(lambda self: self._global_predictions.view())
    gamma_history = property(lambda self: self._gamma_history.view())
    per_module_on = property(lambda self: self._per_module_on.view())

    def on_l2_decision(self, event: L2DecisionEvent) -> None:
        self._global_predictions.put(event.period, event.prediction)
        self._gamma_history.put(event.period, event.gamma)

    def on_l1_decision(self, event: L1DecisionEvent) -> None:
        self._per_module_on.slot(event.period)[event.module] = event.alpha.sum()

    def on_period_end(self, event: PeriodEvent) -> None:
        self._global_arrivals.put(event.period, event.arrivals)


class ProgressObserver(SimulationObserver):
    """Prints a one-line progress report every ``every`` periods."""

    def __init__(self, every: int = 30, stream=None) -> None:
        self.every = max(1, int(every))
        self.stream = stream
        self._periods = 0

    def on_period_end(self, event: PeriodEvent) -> None:
        self._periods += 1
        if self._periods % self.every == 0:
            import sys

            stream = self.stream or sys.stderr
            print(
                f"[repro] period {self._periods}: "
                f"{event.arrivals:.0f} arrivals in the last period",
                file=stream,
            )


class DecisionRecorder(SimulationObserver):
    """Collects every control decision as a deterministic plain record.

    Records are built by :mod:`repro.common.schema` (the single place
    the record shape lives), in the engine's emission order, so two runs
    that make identical decisions produce identical record lists — the
    artifact behind the batch-vs-live-service ``cmp`` gates.
    """

    def __init__(self) -> None:
        self.records: "list[dict]" = []

    def on_l1_decision(self, event: L1DecisionEvent) -> None:
        from repro.common.schema import l1_decision_record

        self.records.append(l1_decision_record(event))

    def on_l2_decision(self, event: L2DecisionEvent) -> None:
        from repro.common.schema import l2_decision_record

        self.records.append(l2_decision_record(event))

    def lines(self) -> "list[str]":
        """One sorted-key JSON line per decision (JSONL-ready)."""
        from repro.common.schema import decision_line

        return [decision_line(record) for record in self.records]
