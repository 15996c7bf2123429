"""The autonomic control loop: online forecasts, deadline-budgeted decisions.

:class:`AutonomicSupervisor` owns one live run: it binds its observer to
the plant's engine, drives the plant step by step on the asyncio loop,
and carries the operator surface (overrides with expiry, status
snapshots, the audit log). The status reports the forecasts the
decisions read, from the decision events; it keeps no filter of its own.

Deadline behaviour is delegated to the engine's seams
(:meth:`~repro.sim.engine.ClusterSimulation.set_decision_deadline`): a
decision that overruns its budget is *discarded* — the previous
allocation holds, the emitted event carries ``held=True``, and the
Kalman observe has already run, so the next period starts resynced. The
supervisor's observer turns those events into audit records, so a miss
is visible to ``repro ctl history`` the moment it happens.
"""

from __future__ import annotations

import asyncio
import time

from repro.common.errors import ConfigurationError, ControlError
from repro.common.schema import (
    l1_decision_record,
    l2_decision_record,
    status_payload,
)
from repro.service.manager import AuditLog, OverrideBook, ShedDirective
from repro.sim.observers import SimulationObserver


class _SupervisorObserver(SimulationObserver):
    """Projects engine events into the supervisor's live state."""

    def __init__(self, supervisor: "AutonomicSupervisor") -> None:
        self.supervisor = supervisor

    def on_l1_decision(self, event) -> None:
        record = l1_decision_record(event)
        supervisor = self.supervisor
        supervisor.decision_records.append(record)
        supervisor.allocations[record["module"]] = record
        if record["held"]:
            supervisor._note_deadline_miss()
            supervisor.audit.record(
                "deadline-miss",
                level="l1",
                period=record["period"],
                module=record["module"],
            )

    def on_l2_decision(self, event) -> None:
        record = l2_decision_record(event)
        supervisor = self.supervisor
        supervisor.decision_records.append(record)
        supervisor.last_l2 = record
        if record["held"]:
            supervisor._note_deadline_miss()
            supervisor.audit.record(
                "deadline-miss", level="l2", period=record["period"]
            )

    def on_period_end(self, event) -> None:
        self.supervisor._on_period_end(event)


class AutonomicSupervisor:
    """Run one plant's controller hierarchy as a live service."""

    def __init__(
        self,
        scenario,
        plant,
        audit_log: "AuditLog | None" = None,
        clock=time.monotonic,
        registry=None,
    ) -> None:
        self.scenario = scenario
        self.plant = plant
        self.service = scenario.service
        self.audit = audit_log if audit_log is not None else AuditLog()
        self.overrides = OverrideBook(
            default_ttl_seconds=self.service.override_ttl_seconds, clock=clock
        )
        self.decision_records: "list[dict]" = []
        self.allocations: "dict[int, dict]" = {}
        self.last_l2: "dict | None" = None
        self.deadline_misses = 0
        self.state = "idle"
        self._stop = asyncio.Event()
        self._result = None
        self._clock = clock
        #: Load-shedding state: the operator directive in force (if
        #: any), whether the automatic deadline-hold policy is engaged,
        #: whether the period now closing saw a held decision, and how
        #: much of ``plant.shed_requests`` is already audited.
        self.shed_directive: "ShedDirective | None" = None
        self.shed_periods = 0
        self._auto_shedding = False
        self._held_in_period = False
        self._shed_mark = 0.0
        #: Optional MetricsRegistry; gauges/counters stay None without
        #: one, so an unmetered supervisor pays zero per-event cost.
        self.registry = registry
        if registry is not None:
            self._metric_deadline_misses = registry.counter(
                "repro_service_deadline_misses_total",
                "Decisions held past their deadline budget.",
            )
            self._metric_step = registry.gauge(
                "repro_service_step", "T_L0 steps taken by the live run."
            )
            self._metric_total_steps = registry.gauge(
                "repro_service_total_steps", "T_L0 steps in the full horizon."
            )
            self._metric_overrides = registry.counter(
                "repro_service_overrides_total",
                "Operator override commands applied.",
            )
            self._metric_shed = registry.counter(
                "repro_shed_total",
                "Requests deliberately dropped by load shedding.",
            )
            self._metric_shed_periods = registry.counter(
                "repro_shed_periods_total",
                "Control periods in which load was shed.",
            )
        else:
            self._metric_deadline_misses = None
            self._metric_step = None
            self._metric_total_steps = None
            self._metric_overrides = None
            self._metric_shed = None
            self._metric_shed_periods = None

    def _note_deadline_miss(self) -> None:
        self.deadline_misses += 1
        self._held_in_period = True
        if self._metric_deadline_misses is not None:
            self._metric_deadline_misses.inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, observers=()) -> "AutonomicSupervisor":
        """Bind observers, apply the deadline budget, reset the run."""
        simulation = self.plant.simulation
        simulation.set_decision_deadline(self.service.deadline_seconds)
        self.plant.bind((_SupervisorObserver(self), *observers))
        self.state = "running"
        if self._metric_total_steps is not None:
            self._metric_total_steps.set(float(self.plant.total_steps))
            self._metric_step.set(0.0)
        self.audit.record(
            "started",
            scenario=self.scenario.name,
            total_steps=self.plant.total_steps,
            deadline_seconds=self.service.deadline_seconds,
            tick_seconds=self.service.tick_seconds,
        )
        return self

    def request_stop(self) -> None:
        """Ask the run loop to stop at the next step (signal-handler safe)."""
        self._stop.set()

    async def run(self):
        """Drive the plant until the horizon completes or stop is requested.

        Returns the structured run result when the horizon completed,
        ``None`` when stopped early. A stop request interrupts even a
        plant blocked on its feed — the wait races the step against the
        stop event. A plant error (a hostile feed line, say) sets the
        state ``failed`` and leaves a ``failed`` audit record naming the
        step and the error before it propagates.
        """
        if self.state == "idle":
            self.start()
        tick = self.service.tick_seconds
        while not self._stop.is_set() and not self.plant.finished:
            advance = asyncio.ensure_future(self.plant.advance())
            stop_wait = asyncio.ensure_future(self._stop.wait())
            done, _ = await asyncio.wait(
                {advance, stop_wait}, return_when=asyncio.FIRST_COMPLETED
            )
            if advance in done:
                stop_wait.cancel()
                try:
                    event = advance.result()
                except Exception as error:
                    self.state = "failed"
                    self.audit.record(
                        "failed", step=self.plant.steps_taken, error=str(error)
                    )
                    raise
                if event is None:
                    break  # feed ended short of the horizon
                # Yield every step so the control server stays live even
                # at tick 0 (free-running).
                await asyncio.sleep(tick if tick > 0 else 0)
            else:
                advance.cancel()
                try:
                    await advance
                except asyncio.CancelledError:
                    pass
                break
        if self.plant.finished:
            self._result = self.plant.finish()
            self.state = "finished"
            if self._metric_step is not None:
                self._metric_step.set(float(self.plant.steps_taken))
            self.audit.record("finished", steps=self.plant.steps_taken)
            return self._result
        self.state = "stopped"
        self.audit.record("stopped", steps=self.plant.steps_taken)
        return None

    # ------------------------------------------------------------------
    # Operator surface
    # ------------------------------------------------------------------

    def override(
        self,
        module: int,
        machines_on: "int | None",
        ttl_seconds: "float | None" = None,
        source: str = "operator",
    ):
        """Pin (or with ``machines_on=None`` release) a module's allocation.

        Validated eagerly against the engine (module index and size);
        takes effect at the next control-period boundary and expires
        after ``ttl_seconds`` (the scenario's default TTL when omitted).
        """
        self.plant.simulation.set_module_override(module, machines_on)
        if machines_on is None:
            existed = self.overrides.clear(module)
            self.audit.record(
                "override-cleared",
                module=int(module),
                existed=existed,
                source=source,
            )
            return None
        override = self.overrides.set(
            module, machines_on, ttl_seconds=ttl_seconds, source=source
        )
        if self._metric_overrides is not None:
            self._metric_overrides.inc()
        self.audit.record(
            "override-set",
            module=override.module,
            machines_on=override.machines_on,
            ttl_seconds=override.ttl_seconds,
            source=source,
        )
        return override

    def _expire_overrides(self) -> None:
        for override in self.overrides.sweep_expired():
            self.plant.simulation.set_module_override(override.module, None)
            self.audit.record(
                "override-expired",
                module=override.module,
                machines_on=override.machines_on,
                ttl_seconds=override.ttl_seconds,
            )

    # ------------------------------------------------------------------
    # Load shedding
    # ------------------------------------------------------------------

    def shed(
        self,
        fraction: "float | None",
        ttl_seconds: "float | None" = None,
        source: str = "operator",
    ):
        """Drop ``fraction`` of incoming load (``None`` stops shedding).

        Takes effect from the next step: the plant scales each trace
        bin down before the engine reads it, so the controllers see
        (and provision for) only the load actually admitted. Every
        dropped request is accounted — per-period ``shed`` audit
        records and the ``repro_shed_total`` counter. ``ttl_seconds``
        bounds the directive; ``None`` keeps it until cleared.
        """
        if fraction is None:
            existed = self.shed_directive is not None or self._auto_shedding
            self.shed_directive = None
            self._auto_shedding = False
            self.plant.shed_fraction = 0.0
            self.audit.record("shed-cleared", existed=existed, source=source)
            return None
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"shed fraction must be in (0, 1], got {fraction!r}"
            )
        if ttl_seconds is not None and not float(ttl_seconds) > 0:
            raise ConfigurationError(
                f"shed ttl must be positive seconds, got {ttl_seconds!r}"
            )
        directive = ShedDirective(
            fraction=fraction,
            ttl_seconds=None if ttl_seconds is None else float(ttl_seconds),
            set_at=self._clock(),
            source=source,
        )
        self.shed_directive = directive
        self._auto_shedding = False
        self.plant.shed_fraction = fraction
        self.audit.record(
            "shed-set",
            fraction=fraction,
            ttl_seconds=directive.ttl_seconds,
            source=source,
        )
        return directive

    def _expire_shed(self) -> None:
        directive = self.shed_directive
        if directive is not None and directive.is_expired(self._clock()):
            self.shed_directive = None
            self.plant.shed_fraction = 0.0
            self.audit.record(
                "shed-expired",
                fraction=directive.fraction,
                ttl_seconds=directive.ttl_seconds,
            )

    def _update_auto_shed(self) -> None:
        """Engage/release the deadline-hold shedding policy.

        Armed by ``service.shed_fraction_on_hold`` > 0 and dormant
        whenever an operator directive is in force. Engages after a
        period that held a decision past its budget, releases after the
        first clean period.
        """
        auto = self.service.shed_fraction_on_hold
        if auto <= 0.0 or self.shed_directive is not None:
            return
        if self._held_in_period and not self._auto_shedding:
            self._auto_shedding = True
            self.plant.shed_fraction = auto
            self.audit.record("shed-auto-engaged", fraction=auto)
        elif not self._held_in_period and self._auto_shedding:
            self._auto_shedding = False
            self.plant.shed_fraction = 0.0
            self.audit.record("shed-auto-released", fraction=auto)

    def shed_snapshot(self) -> dict:
        """JSON-safe load-shedding state (the status payload's ``shed``)."""
        directive = self.shed_directive
        return {
            "fraction": float(self.plant.shed_fraction),
            "auto": self._auto_shedding,
            "auto_fraction_on_hold": self.service.shed_fraction_on_hold,
            "dropped_requests": round(float(self.plant.shed_requests), 6),
            "shed_periods": self.shed_periods,
            "directive": (
                None
                if directive is None
                else directive.snapshot(self._clock())
            ),
        }

    def _on_period_end(self, event) -> None:
        self._expire_overrides()
        self._expire_shed()
        dropped = self.plant.shed_requests - self._shed_mark
        if dropped > 0.0:
            self._shed_mark = self.plant.shed_requests
            self.shed_periods += 1
            self.audit.record(
                "shed",
                period=int(event.period),
                dropped=round(dropped, 6),
                fraction=self.plant.shed_fraction,
                auto=self._auto_shedding,
            )
            if self._metric_shed is not None:
                self._metric_shed.inc(dropped)
                self._metric_shed_periods.inc()
        self._update_auto_shed()
        self._held_in_period = False
        if self._metric_step is not None:
            self._metric_step.set(float(self.plant.steps_taken))

    def status(self) -> dict:
        """The operator's status snapshot (see :func:`status_payload`)."""
        if self.state == "idle":
            raise ControlError("supervisor not started; no status to report")
        simulation = self.plant.simulation
        # The latest boundary decision's forecast: the L2's on a
        # cluster, the module L1's on a module run.
        if self.last_l2 is not None:
            next_arrivals = self.last_l2["prediction"]
        elif self.allocations:
            next_arrivals = self.allocations[0]["prediction"]
        else:
            next_arrivals = 0.0
        forecasts = {
            "next_period_arrivals": float(next_arrivals),
            "last_l2_prediction": (
                None if self.last_l2 is None else self.last_l2["prediction"]
            ),
            "last_l1_predictions": {
                str(module): record["prediction"]
                for module, record in sorted(self.allocations.items())
            },
        }
        return status_payload(
            scenario=self.scenario.name,
            state=self.state,
            step=self.plant.steps_taken,
            total_steps=self.plant.total_steps,
            period=self.plant.steps_taken // simulation.substeps,
            summary=(
                self._result.summary()
                if self._result is not None
                else simulation.live_summary()
            ),
            allocations=[
                self.allocations[module]
                for module in sorted(self.allocations)
            ],
            forecasts=forecasts,
            overrides=self.overrides.snapshot(),
            deadline={
                "seconds": self.service.deadline_seconds,
                "misses": self.deadline_misses,
            },
            shed=self.shed_snapshot(),
            audit_entries=self.audit.entries,
        )

    def decision_lines(self) -> "list[str]":
        """The decision stream as deterministic JSONL lines."""
        from repro.common.schema import decision_line

        return [decision_line(record) for record in self.decision_records]
