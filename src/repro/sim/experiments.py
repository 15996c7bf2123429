"""Workload helpers and the §4.3 control-overhead experiment.

* :func:`module_workload` — the §4.3 synthetic day-scale trace, scaled
  to a module of ``m`` computers;
* :func:`overhead_experiment` — the §4.3 control-overhead measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.specs import paper_module_spec, scaled_module_spec
from repro.workload.synthetic import SyntheticWorkloadSpec, synthetic_trace

#: Aggregate full-speed capacity of the module of four at c = 17.5 ms.
MODULE_OF_FOUR_CAPACITY = paper_module_spec().max_service_rate(0.0175)


def module_workload(
    m: int = 4, l1_samples: int = 1600, seed: int = 0
) -> "np.ndarray":
    """The §4.3 synthetic trace, scaled to a module of ``m`` computers.

    The paper scales the original workload "appropriately" when moving to
    m = 6 and m = 10; we scale peak load to ~70 % of the module's
    full-speed capacity, preserving shape and noise segments.
    """
    spec = SyntheticWorkloadSpec(l1_samples=l1_samples)
    trace = synthetic_trace(spec, seed=seed)
    if m != 4:
        capacity_ratio = (
            scaled_module_spec(m).max_service_rate(0.0175) / MODULE_OF_FOUR_CAPACITY
        )
        trace = trace.scaled(capacity_ratio)
    return trace


@dataclass(frozen=True)
class OverheadReport:
    """Control-overhead measurements for one module size."""

    m: int
    l1_mean_states: float
    l1_total_seconds: float
    l0_total_seconds: float

    @property
    def combined_seconds(self) -> float:
        """Combined L0 + L1 controller execution time (the paper's metric)."""
        return self.l1_total_seconds + self.l0_total_seconds


def overhead_experiment(
    m: int, l1_samples: int = 400, seed: int = 0
) -> OverheadReport:
    """Measure §4.3's control overhead for a module of ``m`` computers."""
    from repro.scenario import Scenario, run_scenario

    scenario = (
        Scenario.module(m=m)
        .workload("synthetic", samples=l1_samples)
        .seed(seed)
        .build()
    )
    result = run_scenario(scenario)
    return OverheadReport(
        m=m,
        l1_mean_states=result.l1_stats.mean_states,
        l1_total_seconds=result.l1_stats.total_seconds,
        l0_total_seconds=result.l0_stats.total_seconds,
    )
