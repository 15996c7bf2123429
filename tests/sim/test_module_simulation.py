"""Integration tests: one module under the hierarchy and baselines."""

import numpy as np
import pytest

from repro.cluster import paper_module_spec
from repro.controllers import (
    AlwaysOnMaxController,
    L1Controller,
    ThresholdDvfsController,
)
from repro.scenario import Scenario, run_scenario
from repro.sim import EngineOptions, ModuleSimulation
from repro.sim.experiments import module_workload
from repro.workload import ArrivalTrace


@pytest.fixture(scope="module")
def behavior_maps():
    """Train the abstraction maps once for all tests in this module."""
    return L1Controller(paper_module_spec()).maps


def _short_run(behavior_maps, l1_samples=60, seed=0, **kwargs):
    scenario = (
        Scenario.module(m=4)
        .workload("synthetic", samples=l1_samples)
        .seed(seed)
        .build()
    )
    return run_scenario(scenario, behavior_maps=behavior_maps, **kwargs)


class TestHierarchyRun:
    def test_qos_target_met_on_average(self, behavior_maps):
        result = _short_run(behavior_maps)
        assert result.summary().mean_response < result.target_response

    def test_arrays_have_consistent_shapes(self, behavior_maps):
        result = _short_run(behavior_maps)
        steps = result.steps
        assert result.frequencies.shape == (steps, 4)
        assert result.responses.shape == (steps, 4)
        assert result.queues.shape == (steps, 4)
        assert result.power.shape == (steps,)
        assert result.computers_on.size == result.l1_arrivals.size

    def test_arrival_conservation(self, behavior_maps):
        """L1-binned arrivals must sum to the trace total."""
        result = _short_run(behavior_maps)
        assert result.l1_arrivals.sum() == pytest.approx(result.arrivals.sum())

    def test_computers_on_within_bounds(self, behavior_maps):
        result = _short_run(behavior_maps)
        assert np.all(result.computers_on >= 1)
        assert np.all(result.computers_on <= 4)

    def test_frequencies_from_processor_sets(self, behavior_maps):
        result = _short_run(behavior_maps)
        spec = paper_module_spec()
        for j, computer in enumerate(spec.computers):
            observed = set(np.round(result.frequencies[:, j], 6))
            allowed = set(np.round(computer.processor.frequencies_ghz, 6))
            assert observed <= allowed

    def test_energy_positive_and_itemised(self, behavior_maps):
        result = _short_run(behavior_maps)
        assert result.energy_base > 0
        assert result.energy_dynamic > 0
        summary = result.summary()
        assert summary.total_energy == pytest.approx(
            result.energy_base + result.energy_dynamic + result.energy_transient
        )

    def test_deterministic_under_seed(self, behavior_maps):
        a = _short_run(behavior_maps, l1_samples=24, seed=3)
        b = _short_run(behavior_maps, l1_samples=24, seed=3)
        assert np.array_equal(a.computers_on, b.computers_on)
        assert np.allclose(a.power, b.power)

    def test_controller_stats_populated(self, behavior_maps):
        result = _short_run(behavior_maps)
        assert result.l1_stats.invocations == result.computers_on.size
        assert result.l0_stats.invocations > 0
        assert result.l1_stats.mean_states > 0

    def test_kalman_predictions_track_load(self, behavior_maps):
        result = _short_run(behavior_maps, l1_samples=120)
        skip = 10  # allow the filter to settle
        errors = np.abs(
            result.l1_predictions[skip:] - result.l1_arrivals[skip:]
        )
        relative = errors.mean() / result.l1_arrivals[skip:].mean()
        assert relative < 0.25


class TestAdaptation:
    def test_machines_track_load_direction(self, behavior_maps):
        """More machines at the daily peak than at the trough."""
        result = _short_run(behavior_maps, l1_samples=720)  # one day
        on = result.computers_on
        loads = result.l1_arrivals
        peak_on = on[np.argsort(loads)[-60:]].mean()
        trough_on = on[np.argsort(loads)[:60]].mean()
        assert peak_on > trough_on

    def test_step_load_increase_boots_machines(self, behavior_maps):
        """A plateau jump in arrivals must raise the active-machine count."""
        low = np.full(40 * 4, 900.0)  # 30 req/s in 30 s bins
        high = np.full(40 * 4, 4200.0)  # 140 req/s
        trace = ArrivalTrace(np.concatenate([low, high]), 30.0)
        simulation = ModuleSimulation(
            paper_module_spec(), trace,
            behavior_maps=behavior_maps,
            engine_options=EngineOptions(warmup_intervals=8),
        )
        result = simulation.run()
        first = result.computers_on[5:35].mean()
        second = result.computers_on[45:].mean()
        assert second > first


class TestBaselineRuns:
    def test_always_on_runs_and_meets_qos(self, behavior_maps):
        spec = paper_module_spec()
        trace = module_workload(m=4, l1_samples=60)
        simulation = ModuleSimulation(
            spec, trace, baseline=AlwaysOnMaxController(spec)
        )
        result = simulation.run()
        assert result.computers_on.min() == 4
        assert result.summary().mean_response < result.target_response

    def test_llc_uses_less_energy_than_always_on(self, behavior_maps):
        spec = paper_module_spec()
        trace = module_workload(m=4, l1_samples=120)
        always_on = ModuleSimulation(
            spec, trace, baseline=AlwaysOnMaxController(spec)
        ).run()
        llc = _short_run(behavior_maps, l1_samples=120)
        assert llc.summary().total_energy < always_on.summary().total_energy

    def test_threshold_dvfs_runs(self, behavior_maps):
        spec = paper_module_spec()
        trace = module_workload(m=4, l1_samples=60)
        simulation = ModuleSimulation(
            spec, trace, baseline=ThresholdDvfsController(spec)
        )
        result = simulation.run()
        assert result.steps == len(simulation.trace)
        assert result.summary().total_energy > 0
