"""A module: the group of computers one L1 controller manages.

Provides the plant-side stepping (split arrivals by gamma, advance every
computer), on/off configuration, and failure and repair of machines.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ControlError
from repro.cluster.computer import Computer, StepResult
from repro.cluster.dispatcher import WeightedDispatcher
from repro.cluster.specs import ModuleSpec
from repro.cluster.state import BOOTING, DRAINING, FAILED, OFF, ON, PlantState


class Module:
    """Plant-side container of the computers in one module.

    Its computers are row ``row`` of ``plant``, the run's
    :class:`~repro.cluster.state.PlantState`; a module made without one
    gets a one-row state of its own.
    """

    def __init__(
        self,
        spec: ModuleSpec,
        initially_on: bool = True,
        seed: "int | None" = None,
        plant: "PlantState | None" = None,
        row: int = 0,
    ) -> None:
        self.spec = spec
        if plant is None:
            plant = PlantState([spec.size])
        self.computers = [
            Computer(c, initially_on=initially_on, plant=plant, at=(row, j))
            for j, c in enumerate(spec.computers)
        ]
        self.dispatcher = WeightedDispatcher(seed=seed)
        size = len(self.computers)
        self._queues = plant.queues[row, :size]
        self._power_states = plant.power_states[row, :size]
        self._settings = plant.settings[row, :size]

    @property
    def size(self) -> int:
        """Number of computers m."""
        return len(self.computers)

    @property
    def queue_lengths(self) -> np.ndarray:
        """Per-computer queue lengths: a view of the plant state's row."""
        return self._queues

    @property
    def available_mask(self) -> np.ndarray:
        """Boolean mask of machines that are not failed."""
        return self._power_states != FAILED

    def apply_configuration(self, alpha: np.ndarray) -> None:
        """Apply an on/off vector (the L1 controller's alpha decision).

        Failed machines ignore power commands (their lifecycle pins them
        to FAILED until repaired). Only a machine whose command changes
        its state is commanded.
        """
        alpha = np.asarray(alpha)
        if alpha.shape != (self.size,):
            raise ControlError(
                f"alpha must have shape ({self.size},), got {alpha.shape}"
            )
        for computer, on, code in zip(
            self.computers, alpha.tolist(), self._power_states.tolist()
        ):
            if on:
                if code == OFF or code == DRAINING:
                    computer.power_on()
            elif code == ON or code == BOOTING:
                computer.power_off()

    def set_frequency_indices(self, indices) -> None:
        """Switch computer j to DVFS setting ``indices[j]``, for every j.

        Only a computer whose setting changes is written.
        """
        wanted = np.asarray(indices).tolist()
        current = self._settings.tolist()
        if wanted == current:
            return
        for computer, old, new in zip(self.computers, current, wanted):
            if new != old:
                computer.set_frequency_index(int(new))

    def fail_computer(self, index: int) -> float:
        """Hard-fail one machine and re-dispatch its backlog.

        The orphaned queue is spread over the remaining serving machines
        proportionally to their capacity; if nobody is serving, it is
        parked on the fastest available machine's queue (it will be
        served once that machine boots). Returns the orphaned backlog.
        """
        if not 0 <= index < self.size:
            raise ControlError(f"no computer at index {index}")
        orphaned = self.computers[index].fail()
        if orphaned <= 0:
            return orphaned
        serving = [
            c for i, c in enumerate(self.computers)
            if i != index and c.is_serving
        ]
        if serving:
            weights = np.array([c.model.speed_factor for c in serving])
            shares = orphaned * weights / weights.sum()
            for computer, share in zip(serving, shares):
                computer.queue += float(share)
        else:
            fallback = max(
                (c for c in self.computers if not c.is_failed),
                key=lambda c: c.model.speed_factor,
                default=None,
            )
            if fallback is not None:
                fallback.queue += orphaned
        return orphaned

    def repair_computer(self, index: int) -> None:
        """Repair a failed machine (it returns to OFF)."""
        if not 0 <= index < self.size:
            raise ControlError(f"no computer at index {index}")
        self.computers[index].repair()

    def step_fluid(
        self, arrivals: float, mean_work: float, dt: float, gamma: np.ndarray
    ) -> list[StepResult]:
        """Split ``arrivals`` by gamma and advance every computer."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.size,):
            raise ControlError(
                f"gamma must have shape ({self.size},), got {gamma.shape}"
            )
        shares = self.dispatcher.split_fluid(arrivals, gamma)
        results = []
        for computer, share in zip(self.computers, shares):
            results.append(computer.step_fluid(share, mean_work, dt))
        return results

    def total_power(self, results: list[StepResult]) -> float:
        """Sum of per-computer power draws for one step."""
        return float(sum(r.power for r in results))

    def switch_counts(self) -> tuple[int, int]:
        """Total (switch_on, switch_off) events across computers."""
        on = sum(c.lifecycle.switch_on_count for c in self.computers)
        off = sum(c.lifecycle.switch_off_count for c in self.computers)
        return on, off
