"""Threading telemetry through the engine's existing seams.

:class:`TelemetryObserver` rides the stepwise observer interface
(:class:`~repro.sim.observers.SimulationObserver`) and projects engine
events into a :class:`~repro.obs.registry.MetricsRegistry`: step and
period counters, decision/hold/override tallies, a response-time
histogram with live P² percentiles, and power/queue gauges.

:class:`Telemetry` bundles one registry and one tracer and knows how to
attach both to a simulation: the registry/tracer land on the engine's
``set_telemetry`` seam (decision-latency histograms and decision
spans), the observer lands on the ordinary ``observers`` tuple. Batch
determinism is untouched — telemetry only *reads* events and wall
clocks, never the plant or controller state, and every engine guard
collapses to nothing when no telemetry is attached.
"""

from __future__ import annotations

import math

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.observers import SimulationObserver


class TelemetryObserver(SimulationObserver):
    """Project engine events into registry counters/gauges/histograms."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._steps = registry.counter(
            "repro_steps_total", "Engine step events observed (per module)."
        )
        self._periods = registry.counter(
            "repro_periods_total", "Control periods completed."
        )
        self._arrivals = registry.counter(
            "repro_arrivals_total", "Requests observed arriving."
        )
        self._decisions = {
            "l1": registry.counter(
                "repro_decisions_total", "Controller decisions taken.",
                level="l1",
            ),
            "l2": registry.counter(
                "repro_decisions_total", "Controller decisions taken.",
                level="l2",
            ),
        }
        self._holds = {
            "l1": registry.counter(
                "repro_decision_holds_total",
                "Decisions discarded by the deadline budget.",
                level="l1",
            ),
            "l2": registry.counter(
                "repro_decision_holds_total",
                "Decisions discarded by the deadline budget.",
                level="l2",
            ),
        }
        self._forced = registry.counter(
            "repro_decision_forced_total",
            "Boundary decisions pinned by an operator override.",
        )
        self._response = registry.histogram(
            "repro_response_seconds",
            "Per-computer response times at each step.",
        )
        self._power = registry.gauge(
            "repro_power_watts", "Plant power draw at the last step."
        )
        self._queue = registry.gauge(
            "repro_queue_length", "Total queued requests at the last step."
        )
        self._machines: "dict[int, object]" = {}

    def on_step(self, event) -> None:
        self._steps.inc()
        self._arrivals.inc(float(event.arrivals))
        observe = self._response.observe
        for value in event.responses:
            value = float(value)
            if math.isfinite(value):
                observe(value)
        self._power.set(float(event.power))
        self._queue.set(float(event.queues.sum()))

    def on_l1_decision(self, event) -> None:
        self._decisions["l1"].inc()
        if event.held:
            self._holds["l1"].inc()
        if event.forced:
            self._forced.inc()
        module = int(event.module)
        gauge = self._machines.get(module)
        if gauge is None:
            gauge = self.registry.gauge(
                "repro_machines_on",
                "Machines the module's last decision keeps serving.",
                module=str(module),
            )
            self._machines[module] = gauge
        gauge.set(float(event.alpha.sum()))

    def on_l2_decision(self, event) -> None:
        self._decisions["l2"].inc()
        if event.held:
            self._holds["l2"].inc()

    def on_period_end(self, event) -> None:
        self._periods.inc()


class Telemetry:
    """One registry + one tracer, attachable to any simulation."""

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    def observer(self) -> TelemetryObserver:
        """A fresh observer feeding this telemetry's registry."""
        return TelemetryObserver(self.registry)

    def attach(self, simulation) -> None:
        """Hand the registry/tracer to the engine's telemetry seam.

        A sinkless tracer is passed as ``None`` so the engine's guards
        stay on the no-telemetry fast path.
        """
        tracer = self.tracer if self.tracer.enabled else None
        simulation.set_telemetry(metrics=self.registry, tracer=tracer)

    def close(self) -> None:
        self.tracer.close()
