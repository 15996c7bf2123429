"""The L0 controller: per-computer DVFS frequency selection (§4.1).

Exhaustive limited lookahead over the processor's finite frequency set:
a tree of all |U|^q states, q = 1..N_L0, evaluated on the queueing
difference model (eqs. 5-7) with the slack cost J = Q*eps + R*psi. The
search is vectorised: all paths at a depth are expanded simultaneously as
numpy arrays, which is what makes the full-day module simulations cheap.

The controller holds no filters. The run owns the paper's pi = 0.1
EWMA of processing time and the fine arrival forecast, and hands each
:meth:`decide` its c-hat and its share of that forecast; map training
passes fixed values instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cluster.specs import ComputerSpec
from repro.controllers.params import L0Params
from repro.controllers.stats import ControllerStats
from repro.core.cost import SlackResponseCost
from repro.queueing.fluid import FluidServerModel


@dataclass(frozen=True)
class L0Decision:
    """Outcome of one L0 optimisation."""

    frequency_index: int
    expected_cost: float
    states_explored: int


class L0Controller:
    """Frequency controller for one computer."""

    def __init__(self, spec: ComputerSpec, params: L0Params | None = None) -> None:
        self.spec = spec
        self.params = params or L0Params()
        self.model = FluidServerModel(
            base_power=spec.base_power,
            speed_factor=spec.effective_speed_factor,
            power_scale=spec.power_scale,
        )
        self.cost = SlackResponseCost(self.params.target_response, self.params.weights)
        self.phis = spec.processor.scaling_factors
        self.stats = ControllerStats()
        #: ``(work_estimate, capacities, effective_service, powers)`` of
        #: the last lookahead; see :meth:`_lookahead_constants`.
        self._constants: "tuple | None" = None

    def decide(
        self,
        queue: float,
        rate_forecasts: np.ndarray,
        work_estimate: float,
    ) -> L0Decision:
        """Exhaustive vectorised lookahead; returns the best first action.

        ``rate_forecasts`` holds the predicted arrival rate (requests/s)
        for each horizon step; ``work_estimate`` is c-hat.
        """
        rates = np.asarray(rate_forecasts, dtype=float)
        if rates.size < self.params.horizon:
            raise ConfigurationError(
                f"need {self.params.horizon} rate forecasts, got {rates.size}"
            )
        if work_estimate <= 0:
            raise ConfigurationError("work_estimate must be positive")
        if self.params.robustness_margin > 0:
            rates = rates * (1.0 + self.params.robustness_margin)
        started = time.perf_counter()
        capacities, effective_service, powers = self._lookahead_constants(
            work_estimate
        )
        period = self.params.period
        price = self.cost.evaluate_checked
        queues = np.array([float(queue)])
        costs = np.zeros(1)
        explored = 0
        for depth in range(self.params.horizon):
            arrivals = max(rates[depth], 0.0) * period
            # Expand every path by every control: shape (paths, |U|).
            next_queues = np.maximum(queues[:, None] + arrivals - capacities, 0.0)
            step_costs = price((1.0 + next_queues) * effective_service, powers)
            explored += next_queues.size
            costs = (costs[:, None] + step_costs).ravel()
            queues = next_queues.ravel()
        # Paths are enumerated first action major: each depth repeats
        # every path once per control.
        best = int(np.argmin(costs))
        first_action = best // self.phis.size ** (self.params.horizon - 1)
        decision = L0Decision(
            frequency_index=first_action,
            expected_cost=float(costs[best]),
            states_explored=explored,
        )
        self.stats.record(explored, time.perf_counter() - started)
        return decision

    def _lookahead_constants(
        self, work_estimate: float
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(capacities, effective_service, powers)`` at one c-hat.

        Requests servable per period, seconds per request, and power
        draw, each per frequency setting. They depend only on the
        controller and ``work_estimate``, so they are rebuilt only when
        the estimate differs from the previous call's (map training
        holds it fixed; online it moves by EWMA steps). The power array
        is checked non-negative here, once, for every depth it prices.
        """
        constants = self._constants
        if constants is None or constants[0] != work_estimate:
            service_rates = self.model.service_rate(self.phis, work_estimate)
            constants = self._constants = (
                work_estimate,
                service_rates * self.params.period,
                work_estimate / (self.phis * self.model.speed_factor),
                self.cost.checked_power(self.model.power(self.phis)),
            )
        return constants[1:]
