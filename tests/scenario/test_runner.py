"""run_scenario: shim equivalence, cluster baselines, observers."""

from itertools import islice

import numpy as np
import pytest

from helpers import HookCounter

from repro.cluster import paper_module_spec
from repro.common import ConfigurationError
from repro.controllers import L1Controller, ThresholdDvfsController
from repro.scenario import Scenario, build_simulation, get_scenario, run_scenario
from repro.scenario.runner import build_workload
from repro.sim import ClusterSimulation, ModuleSimulation, SimulationObserver


@pytest.fixture(scope="module")
def behavior_maps():
    """Train the module-of-four abstraction maps once."""
    return L1Controller(paper_module_spec()).maps


class TestRetiredShims:
    """The pre-1.1 wrappers are gone; run_scenario replaces them."""

    def test_retired_names_not_exported(self):
        import repro
        import repro.sim

        assert "module_experiment" not in repro.__all__
        assert "cluster_experiment" not in repro.sim.__all__


def _identical(a, b):
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.responses, b.responses, equal_nan=True)
    assert np.array_equal(a.queues, b.queues)
    assert np.array_equal(a.power, b.power)
    assert np.array_equal(a.l1_arrivals, b.l1_arrivals)
    assert np.array_equal(a.l1_predictions, b.l1_predictions)
    assert np.array_equal(a.computers_on, b.computers_on)
    assert a.energy_base == b.energy_base
    assert a.energy_dynamic == b.energy_dynamic
    assert a.energy_transient == b.energy_transient
    assert (a.switch_ons, a.switch_offs) == (b.switch_ons, b.switch_offs)


class TestEntryPointEquivalence:
    """The migration targets of the retired wrappers are bit-for-bit
    equivalent: a named registry scenario, the explicit builder chain,
    and keyword overrides all drive the same engine path."""

    def test_named_scenario_matches_builder(self, behavior_maps):
        named = run_scenario(
            get_scenario("paper/fig4-module4", samples=36, seed=11),
            behavior_maps=behavior_maps,
        )
        built = run_scenario(
            Scenario.module(m=4)
            .workload("synthetic", samples=36)
            .seed(11)
            .build(),
            behavior_maps=behavior_maps,
        )
        _identical(named, built)

    def test_baseline_override_matches_declared_baseline(self):
        override = run_scenario(
            Scenario.module(m=4).workload("synthetic", samples=36).build(),
            baseline=ThresholdDvfsController(paper_module_spec()),
        )
        declared = run_scenario(
            Scenario.module(m=4)
            .workload("synthetic", samples=36)
            .baseline("threshold-dvfs")
            .build()
        )
        _identical(override, declared)

    def test_cluster_builder_matches_named_scenario(self):
        built = run_scenario(
            Scenario.cluster(p=4)
            .workload("wc98", samples=36)
            .baseline("threshold-dvfs")
            .seed(2)
            .build()
        )
        named = run_scenario(
            get_scenario("cluster-baseline-showdown", samples=36, seed=2)
        )
        assert np.array_equal(built.global_arrivals, named.global_arrivals)
        assert np.array_equal(built.gamma_history, named.gamma_history)
        assert np.array_equal(
            built.total_computers_on, named.total_computers_on
        )
        for a, b in zip(built.module_results, named.module_results):
            _identical(a, b)


class TestClusterBaselines:
    def test_showdown_scenario_runs(self):
        result = run_scenario(
            get_scenario("cluster-baseline-showdown", samples=30)
        )
        assert result.global_arrivals.size == 30
        assert np.allclose(result.gamma_history.sum(axis=1), 1.0)
        assert result.summary().total_energy > 0

    def test_always_on_uses_every_machine(self):
        result = run_scenario(get_scenario("cluster-always-on-max", samples=24))
        assert result.total_computers_on.min() == 16

    def test_baseline_skips_map_training(self):
        """Baseline cluster construction must be near-instant (no training)."""
        import time

        spec = get_scenario("cluster-baseline-showdown", samples=12)
        started = time.perf_counter()
        simulation = build_simulation(spec)
        elapsed = time.perf_counter() - started
        assert isinstance(simulation, ClusterSimulation)
        assert simulation.module_maps == []
        assert elapsed < 1.0

    def test_cluster_l2_stats_empty_under_baseline(self):
        result = run_scenario(get_scenario("cluster-baseline-showdown", samples=12))
        assert result.l2_stats.invocations == 0


class TestFailoverScenario:
    def test_module_failover_runs_and_recovers(self, behavior_maps):
        spec = get_scenario("module-failover")
        result = run_scenario(spec, behavior_maps=behavior_maps)
        fail_time = spec.faults.events[0][0]
        fail_step = int(fail_time / result.l0_period)
        fail_period = fail_step // 4
        # The failed machine serves nothing right after the event.
        assert np.all(np.isnan(result.responses[fail_step + 4 : fail_step + 40, 3]))
        # Survivors were brought on to absorb the load...
        assert result.computers_on[fail_period + 2 :].max() >= 3
        # ...and QoS recovers: the final third of the run meets the target.
        tail = result.responses[-120:]
        tail = tail[~np.isnan(tail)]
        assert tail.mean() < result.target_response


class TestObserverIntegration:
    def test_module_hook_counts(self, behavior_maps):
        spec = get_scenario("paper/fig4-module4", samples=12)
        counter = HookCounter()
        simulation = build_simulation(spec, behavior_maps=behavior_maps)
        assert isinstance(simulation, ModuleSimulation)
        simulation.run(observers=(counter,))
        substeps = simulation.substeps
        assert counter.counts["run_start"] == 1
        assert counter.counts["run_end"] == 1
        assert counter.counts["step"] == 12 * substeps
        assert counter.counts["l1_decision"] == 12
        assert counter.counts["period_end"] == 12
        assert counter.counts["l2_decision"] == 0

    def test_cluster_hook_counts(self):
        counter = HookCounter()
        run_scenario(
            get_scenario("cluster-baseline-showdown", samples=10),
            observers=(counter,),
        )
        # 4 modules x 10 periods of decisions; 4 module step events per
        # global step; one L2 (split) event per period.
        assert counter.counts["l2_decision"] == 10
        assert counter.counts["l1_decision"] == 40
        assert counter.counts["step"] == 10 * 4 * 4
        assert counter.counts["period_end"] == 10
        assert counter.counts["run_start"] == 1
        assert counter.counts["run_end"] == 1

    def test_cluster_baseline_hook_ordering(self):
        """Baseline cluster runs emit the same event grammar as the
        hierarchy: per period, the L2 split precedes every module
        decision, decisions precede that period's steps, and the period
        closes after its last step."""

        class SequenceObserver(SimulationObserver):
            def __init__(self):
                self.events = []

            def on_run_start(self, simulation):
                self.events.append(("run_start",))

            def on_l2_decision(self, event):
                self.events.append(("l2", event.period))

            def on_l1_decision(self, event):
                self.events.append(("l1", event.period, event.module))

            def on_step(self, event):
                self.events.append(("step", event.step, event.module))

            def on_period_end(self, event):
                self.events.append(("period_end", event.period))

            def on_run_end(self, result):
                self.events.append(("run_end",))

        periods, p = 5, 4
        observer = SequenceObserver()
        run_scenario(
            get_scenario("cluster-baseline-showdown", samples=periods),
            observers=(observer,),
        )
        events = observer.events
        assert events[0] == ("run_start",)
        assert events[-1] == ("run_end",)
        substeps = 4  # 120 s period / 30 s L0 steps
        per_period = 1 + p + substeps * p + 1  # l2 + l1s + steps + close
        for period in range(periods):
            chunk = events[1 + period * per_period : 1 + (period + 1) * per_period]
            assert chunk[0] == ("l2", period)
            # Every module decides, in module order, before any step runs.
            assert chunk[1 : 1 + p] == [("l1", period, i) for i in range(p)]
            steps = chunk[1 + p : -1]
            assert all(tag == "step" for tag, *_ in steps)
            # Each global step fans out to modules 0..p-1 in order.
            assert [module for _, _, module in steps] == list(range(p)) * substeps
            assert chunk[-1] == ("period_end", period)

    def test_observer_sees_what_results_see(self, behavior_maps):
        class PowerStream:
            def __init__(self):
                self.power = []

            def on_run_start(self, simulation):
                pass

            def on_l1_decision(self, event):
                pass

            def on_l2_decision(self, event):
                pass

            def on_step(self, event):
                self.power.append(event.power)

            def on_period_end(self, event):
                pass

            def on_run_end(self, result):
                pass

        stream = PowerStream()
        result = run_scenario(
            get_scenario("paper/fig4-module4", samples=12),
            observers=(stream,),
            behavior_maps=behavior_maps,
        )
        assert np.array_equal(np.array(stream.power), result.power)


class TestStepwiseProtocol:
    def test_steps_yield_one_event_per_step(self, behavior_maps):
        simulation = build_simulation(
            get_scenario("paper/fig4-module4", samples=8),
            behavior_maps=behavior_maps,
        )
        simulation.reset()
        events = list(islice(simulation.steps(), simulation.substeps))
        assert len(events) == simulation.substeps
        assert [e.step for e in events] == list(range(simulation.substeps))
        assert not simulation.finished

    def test_stepping_to_the_end_matches_run(self, behavior_maps):
        spec = get_scenario("paper/fig4-module4", samples=8, seed=4)
        stepped = build_simulation(spec, behavior_maps=behavior_maps)
        stepped.reset()
        while not stepped.finished:
            stepped.step()
        manual = stepped.finish()
        ran = run_scenario(spec, behavior_maps=behavior_maps)
        _identical(manual, ran)

    def test_step_after_finish_raises(self, behavior_maps):
        from repro.common import ControlError

        simulation = build_simulation(
            get_scenario("paper/fig4-module4", samples=4),
            behavior_maps=behavior_maps,
        )
        simulation.run()
        with pytest.raises(ControlError):
            simulation.step()


class TestRunnerValidation:
    def test_unknown_scenario_type_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(42)

    def test_cluster_rejects_single_baseline_instance(self):
        spec = Scenario.cluster(p=4).workload("wc98", samples=12).build()
        with pytest.raises(ConfigurationError):
            build_simulation(
                spec, baseline=ThresholdDvfsController(paper_module_spec())
            )

    def test_steady_workload_builds_constant_trace(self):
        spec = (
            Scenario.module()
            .workload("steady", samples=10, rate=50.0)
            .build()
        )
        trace, work = build_workload(spec)
        assert len(trace) == 40  # 10 periods x 4 L0 bins
        assert np.allclose(trace.counts, 50.0 * 30.0)
        assert work is None
