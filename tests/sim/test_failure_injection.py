"""Failure-injection tests: the autonomic-recovery claim.

The paper motivates autonomic management with component failures
("hardware and software components may fail during operation"). These
tests fail machines mid-run and check the hierarchy absorbs the loss:
load is re-dispatched, replacement capacity is booted, and the QoS
target continues to hold on average.
"""

import numpy as np
import pytest

from repro.common import ConfigurationError, ControlError
from repro.cluster import Module, PowerState, paper_module_spec
from repro.controllers import L1Controller
from repro.sim import EngineOptions, ModuleSimulation
from repro.workload import ArrivalTrace


@pytest.fixture(scope="module")
def behavior_maps():
    return L1Controller(paper_module_spec()).maps


def _steady_trace(rate=110.0, periods=60):
    counts = np.full(periods * 4, rate * 30.0)
    return ArrivalTrace(counts, 30.0)


class TestPlantFailureMechanics:
    def test_failed_machine_stops_serving(self):
        module = Module(paper_module_spec())
        module.fail_computer(3)
        assert module.computers[3].is_failed
        assert not module.computers[3].is_serving
        assert module.available_mask.tolist() == [True, True, True, False]

    def test_failure_redistributes_backlog(self):
        module = Module(paper_module_spec())
        module.computers[3].queue = 120.0
        orphaned = module.fail_computer(3)
        assert orphaned == pytest.approx(120.0)
        assert module.computers[3].queue_length == 0.0
        assert sum(c.queue_length for c in module.computers) == pytest.approx(120.0)

    def test_failed_machine_ignores_power_on(self):
        module = Module(paper_module_spec())
        module.fail_computer(0)
        module.apply_configuration(np.array([1, 1, 1, 1]))
        assert module.computers[0].lifecycle.state is PowerState.FAILED

    def test_repair_returns_machine_to_off(self):
        module = Module(paper_module_spec())
        module.fail_computer(0)
        module.repair_computer(0)
        assert module.computers[0].lifecycle.state is PowerState.OFF
        module.apply_configuration(np.array([1, 0, 0, 0]))
        assert module.computers[0].lifecycle.state is PowerState.BOOTING

    def test_fail_when_nobody_else_serving_parks_backlog(self):
        module = Module(paper_module_spec())
        module.apply_configuration(np.array([0, 0, 0, 1]))
        module.step_fluid(0.0, 0.0175, 30.0, np.array([0.0, 0.0, 0.0, 1.0]))
        module.computers[3].queue = 50.0
        module.fail_computer(3)
        # Parked on an available machine even though none is serving yet.
        assert sum(c.queue_length for c in module.computers) == pytest.approx(50.0)

    def test_bad_index_rejected(self):
        module = Module(paper_module_spec())
        with pytest.raises(ControlError):
            module.fail_computer(9)
        with pytest.raises(ControlError):
            module.repair_computer(-1)


class TestL1AvailabilityMask:
    def test_failed_machine_never_selected(self, behavior_maps):
        l1 = L1Controller(paper_module_spec(), behavior_maps)
        available = np.array([True, True, True, False])
        decision = l1.decide(
            np.zeros(4), np.ones(4, dtype=bool),
            rate_hat=150.0, rate_next=150.0, delta=0.0, work=0.0175,
            available=available,
        )
        assert decision.alpha[3] == 0
        assert decision.gamma[3] == 0.0

    def test_no_available_machine_raises(self, behavior_maps):
        l1 = L1Controller(paper_module_spec(), behavior_maps)
        with pytest.raises(ControlError):
            l1.decide(
                np.zeros(4), np.ones(4, dtype=bool),
                rate_hat=10.0, rate_next=10.0, delta=0.0, work=0.0175,
                available=np.zeros(4, dtype=bool),
            )

    def test_mask_shape_checked(self, behavior_maps):
        l1 = L1Controller(paper_module_spec(), behavior_maps)
        with pytest.raises(ConfigurationError):
            l1.decide(
                np.zeros(4), np.ones(4, dtype=bool),
                rate_hat=10.0, rate_next=10.0, delta=0.0, work=0.0175,
                available=np.ones(3, dtype=bool),
            )


class TestEndToEndRecovery:
    def test_hierarchy_recovers_from_failure(self, behavior_maps):
        """Fail the fastest machine mid-run; QoS must recover."""
        spec = paper_module_spec()
        fail_at = 30 * 120.0  # after 30 L1 periods
        simulation = ModuleSimulation(
            spec,
            _steady_trace(rate=100.0, periods=90),
            behavior_maps=behavior_maps,
            engine_options=EngineOptions(warmup_intervals=10),
            failure_events=((fail_at, 3, "fail"),),
        )
        result = simulation.run()
        # The failed machine serves nothing after the event.
        fail_step = int(fail_at / 30.0)
        assert np.all(np.isnan(result.responses[fail_step + 4 :, 3]))
        # Surviving machines were brought on to absorb the load.
        after = result.computers_on[fail_step // 4 + 2 :]
        assert after.max() >= 3
        # QoS recovers: the final third of the run meets the target.
        tail = result.responses[-240:, :3]
        tail = tail[~np.isnan(tail)]
        assert tail.mean() < result.target_response

    def test_repair_restores_capacity(self, behavior_maps):
        spec = paper_module_spec()
        events = ((20 * 120.0, 3, "fail"), (50 * 120.0, 3, "repair"))
        simulation = ModuleSimulation(
            spec,
            _steady_trace(rate=150.0, periods=90),
            behavior_maps=behavior_maps,
            engine_options=EngineOptions(warmup_intervals=10),
            failure_events=events,
        )
        result = simulation.run()
        # After repair the machine can be (and under this load, is)
        # brought back into service.
        served_late = result.responses[-80:, 3]
        assert np.any(~np.isnan(served_late))

    def test_failure_events_validated(self, behavior_maps):
        spec = paper_module_spec()
        with pytest.raises(ConfigurationError):
            ModuleSimulation(
                spec, _steady_trace(periods=10),
                behavior_maps=behavior_maps,
                failure_events=((0.0, 1, "explode"),),
            )

    def test_negative_time_rejected(self, behavior_maps):
        spec = paper_module_spec()
        with pytest.raises(ConfigurationError):
            ModuleSimulation(
                spec, _steady_trace(periods=10),
                behavior_maps=behavior_maps,
                failure_events=((-60.0, 1, "fail"),),
            )

    def test_out_of_range_computer_index_rejected(self, behavior_maps):
        spec = paper_module_spec()
        for bad_index in (-1, 4, 99):
            with pytest.raises(ConfigurationError):
                ModuleSimulation(
                    spec, _steady_trace(periods=10),
                    behavior_maps=behavior_maps,
                    failure_events=((0.0, bad_index, "fail"),),
                )

    def test_non_integer_computer_index_rejected(self, behavior_maps):
        spec = paper_module_spec()
        with pytest.raises(ConfigurationError):
            ModuleSimulation(
                spec, _steady_trace(periods=10),
                behavior_maps=behavior_maps,
                failure_events=((0.0, 1.5, "fail"),),
            )

    def test_baseline_mode_rejects_failures(self):
        from repro.controllers import AlwaysOnMaxController

        spec = paper_module_spec()
        with pytest.raises(ConfigurationError):
            ModuleSimulation(
                spec, _steady_trace(periods=10),
                baseline=AlwaysOnMaxController(spec),
                failure_events=((0.0, 1, "fail"),),
            )
