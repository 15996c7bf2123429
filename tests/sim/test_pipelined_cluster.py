"""Pipelined and pooled execution: bit-identity, reaping, zero-copy wire.

The boundary pipeline keeps one control period in flight while the
parent replays the previous one. It is not allowed to move a single
bit: every registry cluster scenario must produce an identical
deterministic summary with the pipeline off or on, windowed or not —
including a fault landing exactly on a pipelined period boundary. The zero-copy wire has its own gates: a warm map cache
ships zero inline payload bytes to workers, and a worker killed
mid-run surfaces as one line naming the worker, not a hang.
"""

import json
import os
import signal

import pytest

from repro.common import ConfigurationError, ControlError
from repro.maps import reset_map_stats
from repro.maps.provider import clear_map_memo
from repro.maps.stats import MAP_STATS
from repro.scenario import (
    Scenario,
    build_simulation,
    get_scenario,
    list_scenarios,
)

from test_sharded_cluster import EventLog, assert_results_identical


def _cluster_scenarios():
    return [
        row.name
        for row in list_scenarios()
        if get_scenario(row.name).plant.kind == "cluster"
    ]


def _summary_dict(spec, **overrides):
    spec = spec.with_overrides(**overrides) if overrides else spec
    return build_simulation(spec).run().summary().deterministic_dict()


class TestPipelineParity:
    """pipeline=off vs pipeline=boundary: exact equality, everywhere."""

    @pytest.mark.parametrize("name", _cluster_scenarios())
    def test_registry_scenario_off_vs_boundary(self, name):
        spec = get_scenario(name, samples=8)
        off = _summary_dict(
            spec,
            **{"control.execution": "sharded", "control.pipeline": "off"},
        )
        boundary = _summary_dict(
            spec,
            **{"control.execution": "sharded", "control.pipeline": "boundary"},
        )
        assert off == boundary
        assert json.dumps(off, sort_keys=True) == json.dumps(
            boundary, sort_keys=True
        )

    def test_serial_matches_pipelined(self):
        spec = get_scenario("paper/fig6-cluster16", samples=8)
        serial = _summary_dict(spec)
        pipelined = _summary_dict(
            spec, **{"control.execution": "sharded"}
        )
        assert serial == pipelined

    def test_windowed_off_vs_boundary(self):
        spec = get_scenario("cluster-baseline-showdown", samples=10)
        off = _summary_dict(
            spec,
            **{
                "control.execution": "sharded",
                "control.pipeline": "off",
                "control.window": 8,
            },
        )
        boundary = _summary_dict(
            spec,
            **{
                "control.execution": "sharded",
                "control.pipeline": "boundary",
                "control.window": 8,
            },
        )
        assert off == boundary

    def test_event_streams_identical_under_pipeline(self):
        """Observer event order and payload survive the pipeline bit-exact."""
        spec = get_scenario("paper/fig6-cluster16", samples=8)
        off_log, boundary_log = EventLog(), EventLog()
        off = build_simulation(
            spec.with_overrides(
                **{"control.execution": "sharded", "control.pipeline": "off"}
            )
        ).run(observers=(off_log,))
        boundary = build_simulation(
            spec.with_overrides(**{"control.execution": "sharded"})
        ).run(observers=(boundary_log,))
        assert off_log.events == boundary_log.events
        assert_results_identical(off, boundary)


def _boundary_fault_scenario(pipeline):
    # t = 480 s is step 16 — the first step of period 4, so the failure
    # applies at a *pipelined* boundary: the period was dispatched one
    # period early, and the worker must replay the fault exactly where
    # the serial path does.
    return (
        Scenario.cluster(p=2, computers_per_module=2)
        .workload("steady", samples=8, rate=40.0)
        .control(warmup_intervals=2)
        .with_failures((480.0, 1, 1, "fail"), (720.0, 1, 1, "repair"))
        .execution("sharded")
        .pipeline(pipeline)
        .build()
    )


class TestFaultOnPipelinedBoundary:
    def test_boundary_fault_off_vs_boundary(self):
        off_log, boundary_log = EventLog(), EventLog()
        off = build_simulation(_boundary_fault_scenario("off")).run(
            observers=(off_log,)
        )
        boundary = build_simulation(_boundary_fault_scenario("boundary")).run(
            observers=(boundary_log,)
        )
        assert off_log.events == boundary_log.events
        assert_results_identical(off, boundary)


class TestExecutionModes:
    def test_threads_execution_is_rejected(self):
        spec = get_scenario("cluster-baseline-showdown", samples=4)
        with pytest.raises(ConfigurationError) as excinfo:
            spec.with_overrides(**{"control.execution": "threads"})
        message = str(excinfo.value)
        assert "\n" not in message
        assert message == (
            "control.execution must be one of ('serial', 'sharded'), "
            "got 'threads'"
        )

    def test_sharded_requires_cluster_plant(self):
        with pytest.raises(ConfigurationError, match="requires a cluster plant"):
            (
                Scenario.module(m=2)
                .workload("synthetic", samples=4)
                .execution("sharded")
                .build()
            )


class TestDeadWorkerReap:
    def test_killed_worker_raises_one_line_error(self):
        spec = get_scenario("cluster-baseline-showdown", samples=8)
        simulation = build_simulation(
            spec.with_overrides(**{"control.execution": "sharded"})
        )
        simulation.reset()
        try:
            simulation.step()
            process = simulation._state.pool._processes[0]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)
            with pytest.raises(ControlError, match=r"shard worker 0 .*died"):
                while not simulation.finished:
                    simulation.step()
        finally:
            simulation.close()

    def test_death_error_is_one_line(self):
        spec = get_scenario("cluster-baseline-showdown", samples=8)
        simulation = build_simulation(
            spec.with_overrides(**{"control.execution": "sharded"})
        )
        simulation.reset()
        try:
            simulation.step()
            pool = simulation._state.pool
            process = pool._processes[0]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)
            with pytest.raises(ControlError) as excinfo:
                while not simulation.finished:
                    simulation.step()
            message = str(excinfo.value)
            assert "\n" not in message
            assert f"pid {process.pid}" in message
            assert "exit code" in message
        finally:
            simulation.close()


class TestDigestMapShipping:
    def test_warm_cache_ships_no_payload_bytes(self, tmp_path):
        """The spawn-cost gate: a warm cache means zero inline bytes."""
        cache_dir = str(tmp_path / "maps")
        spec = get_scenario("paper/fig6-cluster16", samples=6).with_overrides(
            **{"control.map_cache": cache_dir}
        )
        build_simulation(spec).run()  # trains and populates the cache
        clear_map_memo()
        reset_map_stats()
        sharded = build_simulation(
            spec.with_overrides(**{"control.execution": "sharded"})
        ).run()
        assert MAP_STATS.shard_digest_refs > 0
        assert MAP_STATS.shard_inline_payloads == 0
        assert MAP_STATS.shard_payload_bytes == 0
        assert MAP_STATS.trainings == 0  # loaded from the warm cache
        serial = build_simulation(spec).run()
        assert (
            serial.summary().deterministic_dict()
            == sharded.summary().deterministic_dict()
        )

    def test_cold_cache_falls_back_to_inline_payloads(self):
        """No cache directory: maps still ship (inline) and runs agree."""
        spec = get_scenario("paper/fig6-cluster16", samples=6)
        serial = build_simulation(spec).run()
        reset_map_stats()
        sharded = build_simulation(
            spec.with_overrides(**{"control.execution": "sharded"})
        ).run()
        assert MAP_STATS.shard_inline_payloads > 0
        assert MAP_STATS.shard_payload_bytes > 0
        assert (
            serial.summary().deterministic_dict()
            == sharded.summary().deterministic_dict()
        )


class TestPooledLiveSummary:
    def _stepped(self, execution, steps=8, pipeline="off"):
        spec = get_scenario("cluster-baseline-showdown", samples=6)
        overrides = {}
        if execution != "serial":
            overrides = {
                "control.execution": execution,
                "control.pipeline": pipeline,
            }
        simulation = build_simulation(
            spec.with_overrides(**overrides) if overrides else spec
        )
        simulation.reset()
        for _ in range(steps):
            simulation.step()
        return simulation

    def test_pooled_live_summary_matches_serial(self):
        serial = self._stepped("serial")
        pooled = self._stepped("sharded")
        try:
            assert (
                serial.live_summary().deterministic_dict()
                == pooled.live_summary().deterministic_dict()
            )
        finally:
            serial.close()
            pooled.close()

    def test_pipelined_inflight_raises(self):
        simulation = self._stepped("sharded", steps=1, pipeline="boundary")
        try:
            # Step 1 of a pipelined run has period 1 in flight.
            with pytest.raises(ControlError, match="in flight"):
                simulation.live_summary()
        finally:
            simulation.close()


class TestServePooled:
    def test_service_scenario_forces_barrier_schedule(self):
        from repro.service.daemon import ServeConfig, resolve_service_scenario

        scenario = resolve_service_scenario(
            ServeConfig(
                scenario="cluster-baseline-showdown",
                samples=6,
                execution="sharded",
            )
        )
        assert scenario.control.execution == "sharded"
        assert scenario.control.pipeline == "off"

    def test_replay_plant_rejects_pooled_engine(self):
        from repro.service.plant import ReplayPlant

        spec = get_scenario("cluster-baseline-showdown", samples=6)
        simulation = build_simulation(
            spec.with_overrides(**{"control.execution": "sharded"})
        )
        with pytest.raises(ControlError, match="replay plant"):
            ReplayPlant(simulation, feed=None)
