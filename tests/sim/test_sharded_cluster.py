"""Sharded cluster execution: bit-identity with the serial backend.

The acceptance bar for the shard backend is not "close enough" — it is
byte-for-byte equality of everything a run exposes: step/decision events
(order and payload), recorder arrays, energies, switch counts, and the
deterministic summary JSON. These tests enforce it for two registry
scenarios (one baseline, one full hierarchy), for a fault landing
mid-period, and for the worker-count > module-count edge case.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.common import ConfigurationError
from repro.scenario import Scenario, build_simulation, get_scenario
from repro.sim import ClusterSimulation, SimulationObserver
from repro.sim.observers import ModuleRecorder
from repro.sim.shard import resolve_shard_workers
from repro.workload import ArrivalTrace


def _sharded(spec, shard_workers=None):
    overrides = {"control.execution": "sharded"}
    if shard_workers is not None:
        overrides["control.shard_workers"] = shard_workers
    return spec.with_overrides(**overrides)


def assert_results_identical(serial, sharded):
    """Every deterministic field of two ClusterRunResults, bit for bit."""
    assert (
        serial.summary().deterministic_dict()
        == sharded.summary().deterministic_dict()
    )
    # The CI gate compares serialized bytes; mirror that here.
    assert json.dumps(
        serial.summary().deterministic_dict(), sort_keys=True
    ) == json.dumps(sharded.summary().deterministic_dict(), sort_keys=True)
    for name in (
        "global_arrivals",
        "global_predictions",
        "gamma_history",
        "total_computers_on",
        "per_module_on",
    ):
        assert np.array_equal(getattr(serial, name), getattr(sharded, name)), name
    assert serial.module_names == sharded.module_names
    for module_serial, module_sharded in zip(
        serial.module_results, sharded.module_results
    ):
        for name in (
            "arrivals",
            "frequencies",
            "queues",
            "power",
            "l1_arrivals",
            "l1_predictions",
            "computers_on",
        ):
            assert np.array_equal(
                getattr(module_serial, name), getattr(module_sharded, name)
            ), name
        assert np.array_equal(
            module_serial.responses, module_sharded.responses, equal_nan=True
        )
        assert module_serial.energy_base == module_sharded.energy_base
        assert module_serial.energy_dynamic == module_sharded.energy_dynamic
        assert module_serial.energy_transient == module_sharded.energy_transient
        assert module_serial.switch_ons == module_sharded.switch_ons
        assert module_serial.switch_offs == module_sharded.switch_offs
        assert (
            module_serial.l0_stats.states_explored
            == module_sharded.l0_stats.states_explored
        )
        assert (
            module_serial.l1_stats.states_explored
            == module_sharded.l1_stats.states_explored
        )


class EventLog(SimulationObserver):
    """Records every hook firing with bit-exact payload fingerprints."""

    def __init__(self) -> None:
        self.events = []

    def on_l1_decision(self, event) -> None:
        self.events.append(
            (
                "l1",
                event.period,
                event.module,
                event.alpha.tobytes(),
                event.gamma.tobytes(),
                event.prediction,
            )
        )

    def on_l2_decision(self, event) -> None:
        self.events.append(
            ("l2", event.period, event.gamma.tobytes(), event.prediction)
        )

    def on_step(self, event) -> None:
        self.events.append(
            (
                "step",
                event.step,
                event.module,
                event.arrivals,
                event.frequencies.tobytes(),
                event.responses.tobytes(),
                event.queues.tobytes(),
                event.power,
            )
        )

    def on_period_end(self, event) -> None:
        self.events.append(
            ("period_end", event.period, event.arrivals,
             event.module_arrivals.tobytes())
        )


@pytest.fixture(scope="module")
def baseline_pair():
    """cluster-baseline-showdown under both backends."""
    spec = get_scenario("cluster-baseline-showdown", samples=8)
    return build_simulation(spec).run(), build_simulation(_sharded(spec)).run()


@pytest.fixture(scope="module")
def hierarchy_pair():
    """paper/fig6-cluster16 (full L2/L1/L0) under both backends, with logs.

    ``shard_workers=2`` over four modules also covers the
    several-modules-per-worker assignment.
    """
    spec = get_scenario("paper/fig6-cluster16", samples=10)
    serial_log, sharded_log = EventLog(), EventLog()
    serial = build_simulation(spec).run(observers=(serial_log,))
    sharded = build_simulation(_sharded(spec, shard_workers=2)).run(
        observers=(sharded_log,)
    )
    return serial, sharded, serial_log, sharded_log


class TestRegistryScenarioParity:
    def test_baseline_cluster_bit_identical(self, baseline_pair):
        assert_results_identical(*baseline_pair)

    def test_hierarchy_cluster_bit_identical(self, hierarchy_pair):
        serial, sharded, _, _ = hierarchy_pair
        assert_results_identical(serial, sharded)

    def test_cli_json_bytes_identical(self, capsys):
        """The shard-smoke CI gate, in-process."""
        assert main(
            ["run", "cluster-baseline-showdown", "--samples", "6", "--json"]
        ) == 0
        serial_bytes = capsys.readouterr().out
        assert main(
            ["run", "cluster-baseline-showdown", "--samples", "6",
             "--execution", "sharded", "--json"]
        ) == 0
        sharded_bytes = capsys.readouterr().out
        assert serial_bytes == sharded_bytes
        assert "controller_seconds" not in serial_bytes


class TestObserverOrdering:
    def test_event_streams_identical(self, hierarchy_pair):
        _, _, serial_log, sharded_log = hierarchy_pair
        assert serial_log.events == sharded_log.events

    def test_serial_emission_pattern(self, hierarchy_pair):
        """Per period: L2, then L1 per module in order, then the steps."""
        _, _, serial_log, _ = hierarchy_pair
        kinds = [event[0] for event in serial_log.events]
        p, substeps = 4, 4
        cursor = 0
        period = 0
        while cursor < len(kinds):
            assert kinds[cursor] == "l2"
            modules = [event[2] for event in
                       serial_log.events[cursor + 1:cursor + 1 + p]]
            assert kinds[cursor + 1:cursor + 1 + p] == ["l1"] * p
            assert modules == list(range(p))
            steps = kinds[cursor + 1 + p:cursor + 1 + p + substeps * p]
            assert steps == ["step"] * substeps * p
            cursor += 1 + p + substeps * p
            assert kinds[cursor] == "period_end"
            assert serial_log.events[cursor][1] == period
            cursor += 1
            period += 1


class _Module0StepCounter(ModuleRecorder):
    """A recorder subclass for module 0 that counts its ``on_step`` calls."""

    def __init__(self, steps: int, size: int, periods: int) -> None:
        super().__init__(steps, size, periods, module=0)
        self.calls = 0

    def on_step(self, event) -> None:
        self.calls += 1
        super().on_step(event)


class TestStepEventDelivery:
    """Every backend hands a user observer the same step events.

    Only the engine's own stock recorders are routed per module; any
    other observer — a ModuleRecorder subclass included — sees every
    module's events, whichever path produced them.
    """

    @pytest.mark.parametrize(
        "overrides",
        [
            {"control.kernel": "scalar"},
            {"control.kernel": "vector"},
            {"control.kernel": "scalar", "control.execution": "sharded"},
            {"control.kernel": "vector", "control.execution": "sharded"},
        ],
        ids=["serial-scalar", "serial-vector", "sharded-scalar", "sharded-vector"],
    )
    def test_recorder_subclass_sees_every_module(self, overrides):
        spec = get_scenario("cluster-baseline-showdown", samples=4)
        simulation = build_simulation(spec.with_overrides(**overrides))
        counter = _Module0StepCounter(
            simulation.total_steps, spec.plant.module_size, simulation.periods
        )
        result = simulation.run(observers=(counter,))
        assert counter.calls == simulation.total_steps * spec.plant.p == 16 * 4
        # Its own module filter still keeps exactly module 0's series.
        assert np.array_equal(counter.power, result.module_results[0].power)


def _failover_scenario(with_fault: bool):
    builder = (
        Scenario.cluster(p=2, computers_per_module=2)
        .workload("steady", samples=6, rate=40.0)
        .control(warmup_intervals=2)
    )
    if with_fault:
        # t = 300 s is step 10 of the run: period 2 spans steps 8..11,
        # so the failure lands mid-period; the repair hits a boundary.
        # Computer 1 is the module's fast machine — the one actually
        # serving under capacity-proportional gamma — so the failure
        # forces a mid-period re-dispatch.
        builder = builder.with_failures(
            (300.0, 1, 1, "fail"), (480.0, 1, 1, "repair")
        )
    return builder.build()


class TestMidPeriodFault:
    @pytest.fixture(scope="class")
    def fault_pair(self):
        spec = _failover_scenario(with_fault=True)
        serial_log, sharded_log = EventLog(), EventLog()
        serial = build_simulation(spec).run(observers=(serial_log,))
        sharded = build_simulation(_sharded(spec)).run(
            observers=(sharded_log,)
        )
        return serial, sharded, serial_log, sharded_log

    def test_fault_run_bit_identical(self, fault_pair):
        serial, sharded, _, _ = fault_pair
        assert_results_identical(serial, sharded)

    def test_fault_event_ordering_identical(self, fault_pair):
        _, _, serial_log, sharded_log = fault_pair
        assert serial_log.events == sharded_log.events

    def test_fault_actually_fired(self, fault_pair):
        serial, _, _, _ = fault_pair
        healthy = build_simulation(_failover_scenario(with_fault=False)).run()
        faulty_module = serial.module_results[1]
        healthy_module = healthy.module_results[1]
        assert not np.array_equal(
            faulty_module.frequencies, healthy_module.frequencies
        )
        # While failed, the machine is excluded from the L1's alpha.
        assert faulty_module.computers_on[3] <= 1


class TestWorkerCountEdge:
    def test_more_workers_than_modules_clamps_and_matches(self):
        spec = (
            Scenario.cluster(p=2, computers_per_module=2)
            .workload("wc98", samples=6)
            .baseline("threshold-dvfs")
            .build()
        )
        serial = build_simulation(spec).run()
        simulation = build_simulation(_sharded(spec, shard_workers=8))
        assert isinstance(simulation, ClusterSimulation)
        simulation.reset()
        assert simulation.effective_shard_workers == 2
        for _ in simulation.steps():
            pass
        sharded = simulation.finish()
        assert_results_identical(serial, sharded)

    def test_resolve_shard_workers(self, monkeypatch):
        import repro.sim.shard as shard_module

        monkeypatch.setattr(shard_module.os, "cpu_count", lambda: 16)
        assert resolve_shard_workers(None, 4) == 4
        assert resolve_shard_workers(2, 4) == 2
        assert resolve_shard_workers(8, 4) == 4
        with pytest.raises(ConfigurationError):
            resolve_shard_workers(0, 4)
        with pytest.raises(ConfigurationError):
            resolve_shard_workers(True, 4)

    def test_default_worker_count_capped_at_cores(self, monkeypatch):
        import repro.sim.shard as shard_module

        monkeypatch.setattr(shard_module.os, "cpu_count", lambda: 2)
        assert resolve_shard_workers(None, 4) == 2
        # An explicit request overrides the core cap.
        assert resolve_shard_workers(4, 4) == 4
        monkeypatch.setattr(shard_module.os, "cpu_count", lambda: None)
        assert resolve_shard_workers(None, 4) == 4


class TestEngineValidation:
    def _spec_and_trace(self):
        from repro.cluster import paper_cluster_spec

        spec = paper_cluster_spec(p=2, computers_per_module=2)
        trace = ArrivalTrace(np.full(16, 100.0), 30.0)
        return spec, trace

    def test_unknown_execution_rejected(self):
        spec, trace = self._spec_and_trace()
        with pytest.raises(ConfigurationError):
            ClusterSimulation(
                spec, trace, baseline="always-on-max", execution="async"
            )

    def test_shard_workers_require_sharded(self):
        spec, trace = self._spec_and_trace()
        with pytest.raises(ConfigurationError):
            ClusterSimulation(
                spec, trace, baseline="always-on-max", shard_workers=2
            )

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
