"""End-to-end tests of the request-granular (DES) module simulation."""

import numpy as np
import pytest

from repro.common import ConfigurationError
from repro.cluster import paper_module_spec
from repro.controllers import L1Controller, L1Params
from repro.sim.des import DiscreteEventModuleSimulation
from repro.workload import ArrivalTrace, RequestStreamGenerator, VirtualStore


@pytest.fixture(scope="module")
def behavior_maps():
    return L1Controller(paper_module_spec()).maps


def _generator(rate=90.0, periods=40, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate * 30.0, periods * 4).astype(float)
    trace = ArrivalTrace(counts, 30.0)
    return RequestStreamGenerator(trace, store=VirtualStore(seed=seed), seed=seed)


def _fingerprint(result) -> tuple:
    """Every number of a run's result, controller counts included."""
    return (
        result.response_stats.count,
        result.response_stats.mean,
        result.completed_requests,
        result.offered_requests,
        result.computers_on.tolist(),
        result.total_energy,
        result.l0_stats.invocations,
        result.l0_stats.states_explored,
        result.l1_stats.invocations,
        result.l1_stats.states_explored,
    )


class TestDiscreteEventRun:
    def test_meets_qos_on_average(self, behavior_maps):
        simulation = DiscreteEventModuleSimulation(
            paper_module_spec(), _generator(), behavior_maps=behavior_maps
        )
        result = simulation.run()
        assert result.response_stats.mean < 4.0
        assert result.response_stats.count > 0

    def test_serves_nearly_all_requests(self, behavior_maps):
        simulation = DiscreteEventModuleSimulation(
            paper_module_spec(), _generator(), behavior_maps=behavior_maps
        )
        result = simulation.run()
        assert result.completed_requests > 0.98 * result.offered_requests

    def test_energy_positive_and_machines_tracked(self, behavior_maps):
        simulation = DiscreteEventModuleSimulation(
            paper_module_spec(), _generator(), behavior_maps=behavior_maps
        )
        result = simulation.run()
        assert result.total_energy > 0
        assert np.all(result.computers_on >= 1)
        assert result.l1_stats.invocations == result.computers_on.size

    def test_second_run_repeats_the_first(self, behavior_maps):
        """Each run builds its controllers and filters and copies the
        generator, so a later run neither differs from nor rewrites an
        earlier result."""
        simulation = DiscreteEventModuleSimulation(
            paper_module_spec(), _generator(periods=12), behavior_maps=behavior_maps
        )
        first = simulation.run()
        snapshot = _fingerprint(first)
        second = simulation.run()
        assert _fingerprint(second) == snapshot
        assert _fingerprint(first) == snapshot
        assert first.l1_stats.invocations == 12

    def test_rejects_misbinned_generator(self, behavior_maps):
        trace = ArrivalTrace(np.full(10, 100.0), 60.0)  # not T_L0
        generator = RequestStreamGenerator(trace, seed=0)
        with pytest.raises(ConfigurationError):
            DiscreteEventModuleSimulation(
                paper_module_spec(), generator, behavior_maps=behavior_maps
            )

    def test_rejects_a_period_shorter_than_half_a_t_l0(self, behavior_maps):
        # round(10 / 30) steps per period would divide by zero in run().
        with pytest.raises(ConfigurationError, match="^T_L1 must cover at least one T_L0$"):
            DiscreteEventModuleSimulation(
                paper_module_spec(),
                _generator(periods=2),
                l1_params=L1Params(period=10.0),
                behavior_maps=behavior_maps,
            )

    def test_agrees_with_fluid_on_machine_provisioning(self, behavior_maps):
        """Fluid and DES engines should provision similar machine counts
        for the same offered load."""
        from repro.sim import EngineOptions, ModuleSimulation

        generator = _generator(rate=110.0, periods=40, seed=3)
        des = DiscreteEventModuleSimulation(
            paper_module_spec(), generator, behavior_maps=behavior_maps, seed=3
        ).run()
        fluid = ModuleSimulation(
            paper_module_spec(),
            generator.trace,
            behavior_maps=behavior_maps,
            engine_options=EngineOptions(warmup_intervals=8),
        ).run()
        assert des.computers_on.mean() == pytest.approx(
            fluid.computers_on.mean(), abs=1.0
        )
