"""The plant model of one computer: queue + DVFS + power state + energy.

A :class:`Computer` is the physical entity the controllers act on. It has
two interchangeable queue backends:

* **fluid** — queue lengths evolve by the paper's difference equations;
  this is what the original MATLAB evaluation simulates, and what the
  benchmark harness uses.
* **discrete-event** — request-granular FCFS via
  :class:`~repro.queueing.lindley.FcfsServer`; used to validate the fluid
  results at request granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ControlError, SimulationError
from repro.common.validation import require_non_negative, require_positive
from repro.cluster.lifecycle import POWER_STATES, MachineLifecycle
from repro.cluster.power import EnergyMeter
from repro.cluster.specs import ComputerSpec
from repro.cluster.state import BOOTING, DRAINING, OFF, ON, PlantState
from repro.queueing.fluid import FluidServerModel, fluid_step
from repro.queueing.lindley import FcfsServer


@dataclass(frozen=True)
class StepResult:
    """Outcome of advancing one computer by one sampling period."""

    arrivals: float
    served: float
    queue: float
    response_time: float  # NaN when nothing was served
    power: float
    completed_responses: tuple[float, ...] = ()


class Computer:
    """One computer: spec + lifecycle + queue + frequency + energy meter.

    The queue, power state, boot countdown and DVFS setting live in cell
    ``at`` (row, column) of ``plant``, the run's
    :class:`~repro.cluster.state.PlantState`; a computer made without one
    gets a one-cell state of its own.
    """

    def __init__(
        self,
        spec: ComputerSpec,
        initially_on: bool = True,
        discrete_event: bool = False,
        plant: "PlantState | None" = None,
        at: "tuple[int, int]" = (0, 0),
    ) -> None:
        self.spec = spec
        plant = plant if plant is not None else PlantState([1])
        self.lifecycle = MachineLifecycle(
            boot_delay=spec.boot_delay, initially_on=initially_on, plant=plant, at=at
        )
        self.model = FluidServerModel(
            base_power=spec.base_power,
            speed_factor=spec.effective_speed_factor,
            power_scale=spec.power_scale,
        )
        processor = spec.processor
        self._plant = plant
        row, self._at = at
        self._queues = plant.queues[row]
        self._settings = plant.settings[row]
        self._phis = plant.phis[row]
        self._frequencies = plant.frequencies[row]
        #: Each setting's scaling factor, written to the plant with it.
        self._phi_values = tuple(
            processor.scaling_factor(s) for s in range(processor.setting_count)
        )
        top = processor.setting_count - 1
        self._settings[self._at] = top
        self._phis[self._at] = self._phi_values[top]
        self._frequencies[self._at] = processor.frequencies_ghz[top]
        self._queues[self._at] = 0.0
        self.energy = EnergyMeter()
        self.server: FcfsServer | None = FcfsServer() if discrete_event else None
        self._clock = 0.0

    # ------------------------------------------------------------------
    # Control surface
    # ------------------------------------------------------------------
    @property
    def queue(self) -> float:
        """The fluid queue (requests)."""
        return self._queues.item(self._at)

    @queue.setter
    def queue(self, value: float) -> None:
        self._queues[self._at] = value

    @property
    def frequency_index(self) -> int:
        """The current DVFS setting."""
        return self._settings.item(self._at)

    @property
    def phi(self) -> float:
        """Current scaling factor u / u_max."""
        return self._phis.item(self._at)

    @property
    def frequency_ghz(self) -> float:
        """Current operating frequency."""
        return self._frequencies.item(self._at)

    def set_frequency_index(self, index: int) -> None:
        """Switch the DVFS setting (instantaneous, per the paper)."""
        count = self.spec.processor.setting_count
        if not 0 <= index < count:
            raise ControlError(
                f"frequency index {index} out of range 0..{count - 1}"
            )
        index = int(index)
        at = self._at
        if self._settings.item(at) != index:
            self._settings[at] = index
            self._phis[at] = self._phi_values[index]
            self._frequencies[at] = self.spec.processor.frequencies_ghz[index]
            self._plant.setting_changes += 1

    def power_on(self) -> None:
        """Command this machine on (boot dead time applies)."""
        was_off = self.lifecycle.code == OFF
        self.lifecycle.power_on()
        if was_off and self.lifecycle.code in (BOOTING, ON):
            self.energy.add_transient(self.spec.boot_energy)

    def power_off(self) -> None:
        """Command this machine off (drains queued work first)."""
        self.lifecycle.power_off()

    def fail(self) -> float:
        """Hard-fail this machine; returns the queue it was holding.

        The returned backlog represents requests the load balancer must
        re-dispatch (the callers redistribute it across surviving
        machines).
        """
        self.lifecycle.fail()
        orphaned = self.queue
        self.queue = 0.0
        if self.server is not None:
            # Drop the DES backlog as well; re-dispatch is modelled at
            # the fluid level only.
            self.server = FcfsServer()
        return orphaned

    def repair(self) -> None:
        """Repair a failed machine (returns to OFF; boot to reuse)."""
        self.lifecycle.repair()

    @property
    def is_failed(self) -> bool:
        """True while the machine is failed."""
        return self.lifecycle.is_failed

    @property
    def is_serving(self) -> bool:
        """True when the machine is processing requests."""
        return self.lifecycle.is_serving

    @property
    def accepts_work(self) -> bool:
        """True when the dispatcher may route new requests here."""
        return self.lifecycle.accepts_work

    @property
    def queue_length(self) -> float:
        """Current queue length (requests), whichever backend is active."""
        if self.server is not None:
            return float(self.server.queue_length)
        return self.queue

    # ------------------------------------------------------------------
    # Fluid plant step
    # ------------------------------------------------------------------
    def step_fluid(self, arrivals: float, mean_work: float, dt: float) -> StepResult:
        """Advance the fluid queue one period of length ``dt`` seconds.

        ``arrivals`` is the number of requests dispatched here during the
        period and ``mean_work`` their average full-speed processing time
        (the paper's c).
        """
        if self.server is not None:
            raise SimulationError("computer is in discrete-event mode")
        require_non_negative(arrivals, "arrivals")
        require_positive(mean_work, "mean_work")
        require_positive(dt, "dt")
        # The power state and setting do not change until the tick, so
        # each is read once.
        code = self.lifecycle.code
        if arrivals > 0 and not (code == BOOTING or self.accepts_work):
            raise ControlError(
                f"{self.spec.name} received arrivals while {POWER_STATES[code].value}"
            )
        at = self._at
        start_queue = self._queues.item(at)
        phi = self._phis.item(at)
        serving = code == ON or code == DRAINING
        if serving:
            rate = float(self.model.service_rate(phi, mean_work))
            capacity = rate * dt
        else:
            capacity = 0.0
        next_queue, served = fluid_step(start_queue, arrivals, capacity)
        queue = float(next_queue)
        self._queues[at] = queue
        response = float("nan")
        if served > 0 and serving:
            mid_queue = (start_queue + queue) / 2.0
            response = float(self.model.response_time(mid_queue, mean_work, phi))
        power = self._record_energy(dt, code, phi)
        self.lifecycle.tick(dt, queue_empty=queue <= 1e-9)
        self._clock += dt
        return StepResult(
            arrivals=arrivals,
            served=float(served),
            queue=queue,
            response_time=response,
            power=power,
        )

    # ------------------------------------------------------------------
    # Discrete-event plant step
    # ------------------------------------------------------------------
    def offer_requests(self, arrival_times: np.ndarray, works: np.ndarray) -> None:
        """Enqueue request-granular work (discrete-event mode only)."""
        if self.server is None:
            raise SimulationError("computer is in fluid mode")
        self.server.offer(arrival_times, works)

    def step_des(self, dt: float) -> StepResult:
        """Advance the discrete-event server one period."""
        if self.server is None:
            raise SimulationError("computer is in fluid mode")
        require_positive(dt, "dt")
        code = self.lifecycle.code
        phi = self.phi
        speed = self.model.speed_factor * phi if code == ON or code == DRAINING else 0.0
        completed = self.server.advance(until=self._clock + dt, speed=speed)
        responses = tuple(r.response_time for r in completed)
        power = self._record_energy(dt, code, phi)
        self.lifecycle.tick(dt, queue_empty=self.server.queue_length == 0)
        self._clock += dt
        served = float(len(completed))
        return StepResult(
            arrivals=math.nan,
            served=served,
            queue=float(self.server.queue_length),
            response_time=float(np.mean(responses)) if responses else float("nan"),
            power=power,
            completed_responses=responses,
        )

    def _record_energy(self, dt: float, code: int, phi: float) -> float:
        """Meter this period's power draw in state ``code``; returns its average."""
        if not self.lifecycle.draws_power:
            return 0.0
        base = self.spec.base_power
        serving = code == ON or code == DRAINING
        dynamic = float(self.model.power(phi)) - base if serving else 0.0
        self.energy.add_interval(base, dynamic, dt)
        return base + dynamic
