"""Request-granular (discrete-event) module simulation.

The paper's MATLAB evaluation simulates the fluid model; this engine runs
the same L1 + L0 hierarchy against an *exact* FCFS plant fed by
request-level streams from the virtual store (10,000 objects, Zipf
popularity, U(10, 25) ms service demands; each request draws its object
independently, without temporal locality).
Every response time is an individual request's sojourn, so the fluid
results can be validated end to end — including the EWMA processing-time
estimator, which here tracks a genuinely varying request mix.

As in the fluid engines, each run owns its filters and builds its
controllers afresh: the L1's arrival filter, a boundary EWMA of the
interval's mean demand, the fine filter, and one EWMA per computer,
because each computer's L0 measures the requests it was sent. The
request generator is a template: each run draws its streams from a
copy, so two runs of one simulation give equal results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cluster.computer import Computer
from repro.cluster.dispatcher import WeightedDispatcher
from repro.cluster.specs import ModuleSpec
from repro.controllers.l0 import L0Controller
from repro.controllers.l1 import ComputerBehaviorMap, L1Controller
from repro.controllers.params import L0Params, L1Params
from repro.controllers.stats import ControllerStats
from repro.forecast.ewma import EwmaFilter
from repro.forecast.structural import WorkloadPredictor
from repro.queueing.metrics import ResponseStats
from repro.sim.shard import DEFAULT_WORK, c_hat, control_substeps, set_points
from repro.workload.requests import RequestStreamGenerator


@dataclass
class DiscreteEventRunResult:
    """Results of a request-granular module run."""

    response_stats: ResponseStats
    completed_requests: int
    offered_requests: int
    computers_on: np.ndarray
    total_energy: float
    l0_stats: ControllerStats
    l1_stats: ControllerStats


class DiscreteEventModuleSimulation:
    """One module under the hierarchy, at request granularity."""

    def __init__(
        self,
        spec: ModuleSpec,
        generator: RequestStreamGenerator,
        l0_params: L0Params | None = None,
        l1_params: L1Params | None = None,
        behavior_maps: "list[ComputerBehaviorMap] | None" = None,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.generator = generator
        self.l0_params = l0_params or L0Params()
        self.l1_params = l1_params or L1Params()
        if abs(generator.trace.bin_seconds - self.l0_params.period) > 1e-9:
            raise ConfigurationError(
                "the request generator's trace must be binned at T_L0"
            )
        self.substeps = control_substeps(self.l0_params, self.l1_params)
        if behavior_maps is None:
            behavior_maps = L1Controller._train_maps(
                spec, self.l0_params, self.l1_params
            )
        self.behavior_maps = behavior_maps
        self.seed = seed

    def run(self) -> DiscreteEventRunResult:
        """Simulate the generator's full trace at request granularity.

        Every call is a fresh run: new plant, controllers and filters,
        and a copy of the generator, which the run draws from.
        """
        generator = copy.deepcopy(self.generator)
        l1 = L1Controller(
            self.spec, self.behavior_maps, self.l1_params, self.l0_params
        )
        l0s = [L0Controller(c, self.l0_params) for c in self.spec.computers]
        computers = [
            Computer(c, initially_on=True, discrete_event=True)
            for c in self.spec.computers
        ]
        dispatcher = WeightedDispatcher(seed=self.seed)
        arrival_filter = WorkloadPredictor(band_window=self.l1_params.band_window)
        boundary_work = EwmaFilter(smoothing=0.1)
        step_work = [EwmaFilter(smoothing=0.1) for _ in computers]
        fine_predictor = WorkloadPredictor()
        m = self.spec.size
        alpha = np.ones(m, dtype=bool)
        gamma = np.full(m, 1.0 / m)
        stats = ResponseStats(target=self.l0_params.target_response)
        steps = len(generator.trace)
        periods = int(np.ceil(steps / self.substeps))
        computers_on = np.zeros(periods)
        offered = completed = 0
        interval_arrivals = 0.0
        interval_work: list[float] = []

        for k in range(steps):
            stream = generator.bin_stream(k)
            offered += stream.count
            if k % self.substeps == 0:
                index = k // self.substeps
                if k > 0:
                    arrival_filter.observe(float(interval_arrivals))
                    mean_work = float(np.mean(interval_work)) if interval_work else 0.0
                    if mean_work > 0:
                        boundary_work.observe(mean_work)
                interval_arrivals = 0.0
                interval_work = []
                rate_hat, rate_next, delta, _ = set_points(
                    arrival_filter.forecast(2),
                    arrival_filter.band.delta,
                    1.0,
                    self.l1_params.period,
                    self.l1_params.use_uncertainty_band,
                )
                decision = l1.decide(
                    np.array([c.queue_length for c in computers]),
                    alpha,
                    rate_hat=rate_hat,
                    rate_next=rate_next,
                    delta=delta,
                    work=c_hat(boundary_work),
                )
                alpha = decision.alpha.astype(bool)
                gamma = decision.gamma
                for computer, on in zip(computers, alpha):
                    computer.power_on() if on else computer.power_off()
                computers_on[index] = alpha.sum()

            interval_arrivals += stream.count
            if stream.count:
                interval_work.extend(stream.works.tolist())

            # Dispatch this bin's requests by gamma, then advance plants.
            parts = dispatcher.split_requests(
                stream.arrival_times, stream.works, gamma
            )
            module_forecast = (
                fine_predictor.forecast(self.l0_params.horizon)
                / self.l0_params.period
            )
            for j, computer in enumerate(computers):
                times, works = parts[j]
                if times.size:
                    computer.offer_requests(times, works)
                if computer.is_serving:
                    freq = l0s[j].decide(
                        computer.queue_length,
                        gamma[j] * module_forecast,
                        c_hat(step_work[j]),
                    )
                    computer.set_frequency_index(freq.frequency_index)
                result = computer.step_des(self.l0_params.period)
                completed += int(result.served)
                stats.record_many(result.completed_responses)
                if result.completed_responses:
                    step_work[j].observe(
                        float(np.mean(works)) if works.size else DEFAULT_WORK
                    )
            fine_predictor.observe(float(stream.count))

        l0_stats = ControllerStats()
        for l0 in l0s:
            l0_stats = l0_stats.merged_with(l0.stats)
        return DiscreteEventRunResult(
            response_stats=stats,
            completed_requests=completed,
            offered_requests=offered,
            computers_on=computers_on,
            total_energy=float(sum(c.energy.total for c in computers)),
            l0_stats=l0_stats,
            l1_stats=l1.stats,
        )
