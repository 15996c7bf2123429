"""Integration tests: the full L2/L1/L0 hierarchy on a small cluster."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.cluster import paper_cluster_spec
from repro.controllers import L1Params
from repro.scenario import build_simulation, get_scenario
from repro.sim import ClusterSimulation, EngineOptions
from repro.sim.observers import ModuleRecorder
from repro.workload import ArrivalTrace, WC98Spec, wc98_trace


@pytest.fixture(scope="module")
def short_cluster_result():
    """One short cluster run shared by the assertions below."""
    spec = paper_cluster_spec()
    trace = wc98_trace(WC98Spec(samples=60), seed=0)
    capacity = sum(m.max_service_rate(0.0175) for m in spec.modules)
    peak_rate = trace.counts.max() / trace.bin_seconds
    trace = trace.scaled(0.6 * capacity / peak_rate)
    simulation = ClusterSimulation(
        spec, trace, engine_options=EngineOptions(warmup_intervals=12)
    )
    return simulation.run()


class TestClusterRun:
    def test_periods_and_shapes(self, short_cluster_result):
        result = short_cluster_result
        periods = result.global_arrivals.size
        assert result.gamma_history.shape == (periods, 4)
        assert result.per_module_on.shape == (periods, 4)
        assert result.total_computers_on.shape == (periods,)
        assert len(result.module_results) == 4

    def test_gamma_rows_sum_to_one(self, short_cluster_result):
        sums = short_cluster_result.gamma_history.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_gamma_on_quantised_grid(self, short_cluster_result):
        quanta = short_cluster_result.gamma_history / 0.1
        assert np.allclose(quanta, np.rint(quanta), atol=1e-9)

    def test_total_on_consistent_with_modules(self, short_cluster_result):
        result = short_cluster_result
        assert np.allclose(
            result.per_module_on.sum(axis=1), result.total_computers_on
        )

    def test_qos_met_on_average(self, short_cluster_result):
        summary = short_cluster_result.summary()
        assert summary.mean_response < short_cluster_result.target_response

    def test_arrival_conservation_across_modules(self, short_cluster_result):
        result = short_cluster_result
        module_total = sum(m.arrivals.sum() for m in result.module_results)
        assert module_total == pytest.approx(result.global_arrivals.sum())

    def test_hierarchy_path_time_positive(self, short_cluster_result):
        assert short_cluster_result.hierarchy_path_seconds() > 0

    def test_l2_stats_recorded(self, short_cluster_result):
        result = short_cluster_result
        assert result.l2_stats.invocations == result.global_arrivals.size


class TestClusterConfiguration:
    def test_the_l2_decides_on_the_l1_period(self):
        # A baseline cluster trains no maps; its split still opens one
        # period per T_L1.
        trace = ArrivalTrace(np.full(16, 1000.0), 30.0)
        simulation = ClusterSimulation(
            paper_cluster_spec(),
            trace,
            l1_params=L1Params(period=240.0),
            baseline="always-on-max",
        )
        assert (simulation.substeps, simulation.periods) == (8, 2)
        assert simulation.run().l2_period == 240.0

    def test_a_period_shorter_than_half_a_t_l0_rejected(self):
        # round(10 / 30) steps per period would divide by zero.
        with pytest.raises(ConfigurationError, match="^T_L1 must cover at least one T_L0$"):
            ClusterSimulation(
                paper_cluster_spec(),
                ArrivalTrace(np.full(16, 1000.0), 30.0),
                l1_params=L1Params(period=10.0),
                baseline="always-on-max",
            )

    def test_load_follows_backlog_relief(self, short_cluster_result):
        """No module should be starved while others are overloaded: the
        L2 spreads load, so every module serves some arrivals."""
        for module_result in short_cluster_result.module_results:
            assert module_result.arrivals.sum() > 0


class _Module0StepCounter(ModuleRecorder):
    """A recorder subclass for module 0 that counts its ``on_step`` calls."""

    def __init__(self, steps: int, size: int, periods: int) -> None:
        super().__init__(steps, size, periods, module=0)
        self.calls = 0

    def on_step(self, event) -> None:
        self.calls += 1
        super().on_step(event)


class TestStepEventDelivery:
    """Both kernels hand a user observer the same step events.

    Only the engine's own stock recorders are routed per module; any
    other observer — a ModuleRecorder subclass included — sees every
    module's events, whichever kernel produced them.
    """

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_recorder_subclass_sees_every_module(self, kernel):
        spec = get_scenario("cluster-baseline-showdown", samples=4)
        simulation = build_simulation(
            spec.with_overrides(**{"control.kernel": kernel})
        )
        counter = _Module0StepCounter(
            simulation.total_steps, spec.plant.module_size, simulation.periods
        )
        result = simulation.run(observers=(counter,))
        assert counter.calls == simulation.total_steps * spec.plant.p == 16 * 4
        # Its own module filter still keeps exactly module 0's series.
        assert np.array_equal(counter.power, result.module_results[0].power)


class TestFailureEventValidation:
    def _spec_and_trace(self):
        spec = paper_cluster_spec(p=2, computers_per_module=2)
        trace = ArrivalTrace(np.full(16, 100.0), 30.0)
        return spec, trace

    def test_baseline_rejects_failure_events(self):
        spec, trace = self._spec_and_trace()
        with pytest.raises(ConfigurationError):
            ClusterSimulation(
                spec,
                trace,
                baseline="always-on-max",
                failure_events=((60.0, 0, 0, "fail"),),
            )

    def test_failure_event_indices_checked(self):
        spec, trace = self._spec_and_trace()
        with pytest.raises(ConfigurationError):
            ClusterSimulation(spec, trace, failure_events=((60.0, 5, 0, "fail"),))
        with pytest.raises(ConfigurationError):
            ClusterSimulation(spec, trace, failure_events=((60.0, 0, 7, "fail"),))
