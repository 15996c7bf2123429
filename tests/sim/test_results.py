"""Unit tests for result containers and summary arithmetic."""

import numpy as np
import pytest

from repro.controllers import ControllerStats
from repro.sim.observers import StreamStats
from repro.sim.results import (
    ClusterRunResult,
    ModuleRunResult,
    RunSummary,
    fold_summary,
    stream_quality,
)
from repro.sim.shard import ModuleFinalization


def _stream(rows, machines_on, target=4.0):
    stream = StreamStats(target_response=target, step_seconds=30.0)
    for row in rows:
        stream.observe_step(np.array(row), 3.0)
    for on in machines_on:
        stream.observe_decision(on)
    return stream


def _module_result(
    responses=None,
    computers_on=None,
    energy=(10.0, 5.0, 1.0),
    switches=(2, 3),
    l0_seconds=(0.001, 0.002),
    l1_seconds=(0.01,),
    l1_states=(100,),
):
    steps, m = 4, 2
    if responses is None:
        responses = np.array(
            [[1.0, 2.0], [3.0, np.nan], [5.0, 1.0], [np.nan, np.nan]]
        )
    if computers_on is None:
        computers_on = np.array([2.0, 1.0])
    l0 = ControllerStats()
    for s in l0_seconds:
        l0.record(399, s)
    l1 = ControllerStats()
    for states, s in zip(l1_states, l1_seconds):
        l1.record(states, s)
    return ModuleRunResult(
        l0_period=30.0,
        l1_period=120.0,
        computer_names=["A", "B"],
        arrivals=np.full(steps, 100.0),
        frequencies=np.ones((steps, m)),
        responses=responses,
        queues=np.zeros((steps, m)),
        power=np.full(steps, 3.0),
        l1_arrivals=np.array([250.0, 150.0]),
        l1_predictions=np.array([240.0, 160.0]),
        computers_on=computers_on,
        target_response=4.0,
        energy_base=energy[0],
        energy_dynamic=energy[1],
        energy_transient=energy[2],
        switch_ons=switches[0],
        switch_offs=switches[1],
        l0_stats=l0,
        l1_stats=l1,
        stream=_stream(responses, computers_on),
    )


class TestModuleRunResult:
    def test_summary_mean_ignores_nan(self):
        summary = _module_result().summary()
        assert summary.mean_response == pytest.approx((1 + 2 + 3 + 5 + 1) / 5)

    def test_summary_violations(self):
        summary = _module_result().summary()
        assert summary.violation_fraction == pytest.approx(1 / 5)  # only the 5.0

    def test_summary_energy_total(self):
        summary = _module_result().summary()
        assert summary.total_energy == pytest.approx(16.0)

    def test_summary_controller_seconds(self):
        summary = _module_result().summary()
        assert summary.controller_seconds == pytest.approx(0.013)

    def test_module_response_rowwise_nanmean(self):
        result = _module_result()
        assert result.module_response[0] == pytest.approx(1.5)
        assert result.module_response[1] == pytest.approx(3.0)
        assert np.isnan(result.module_response[3])

    def test_summary_str_fields(self):
        text = str(_module_result().summary())
        assert "mean r" in text and "energy" in text and "switches" in text


class TestRunSummarySerialisation:
    def test_to_dict_is_json_safe(self):
        import json

        payload = _module_result().summary().to_dict()
        json.loads(json.dumps(payload))  # must not raise
        assert payload["switch_ons"] == 2


class TestClusterRunResult:
    def _cluster(self):
        modules = [_module_result(), _module_result(energy=(1.0, 1.0, 0.0))]
        l2 = ControllerStats()
        l2.record(2288, 0.02)
        return ClusterRunResult(
            l2_period=120.0,
            module_names=["M1", "M2"],
            global_arrivals=np.array([500.0, 300.0]),
            global_predictions=np.array([480.0, 310.0]),
            gamma_history=np.array([[0.5, 0.5], [0.6, 0.4]]),
            total_computers_on=np.array([4.0, 3.0]),
            per_module_on=np.array([[2.0, 2.0], [2.0, 1.0]]),
            target_response=4.0,
            module_results=modules,
            l2_stats=l2,
        )

    def test_summary_merges_modules(self):
        summary = self._cluster().summary()
        assert summary.total_energy == pytest.approx(16.0 + 2.0)
        assert summary.switch_ons == 4

    def test_hierarchy_path_time(self):
        cluster = self._cluster()
        # L2 mean 0.02 + worst L1 mean 0.01 + worst L0 mean 0.0015 x 4.
        assert cluster.hierarchy_path_seconds() == pytest.approx(
            0.02 + 0.01 + 0.0015 * 4
        )


class TestSummaryFold:
    """One fold serves module results, cluster results and live runs."""

    def test_one_stream_folds_to_its_own_means(self):
        stream = _stream([[1.0, 2.5], [np.nan, 7.0], [0.3, np.nan]], [2.0, 1.0, 2.0])
        mean_response, violations, mean_on = stream_quality([stream])
        assert mean_response == pytest.approx((1.0 + 2.5 + 7.0 + 0.3) / 4)
        assert violations == 1 / 4
        assert mean_on == 5.0 / 3

    def test_streams_merge_over_modules(self):
        first = _stream([[1.0, 2.0], [5.0, np.nan]], [2.0, 1.0])
        second = _stream([[3.0, np.nan]], [1.0])
        mean_response, violations, mean_on = stream_quality([first, second])
        assert mean_response == (8.0 + 3.0) / 4
        assert violations == 1 / 4
        # Machines on add over modules, per control period.
        assert mean_on == (3.0 + 1.0) / 2

    def test_empty_streams_fold_to_zero(self):
        assert stream_quality([StreamStats(), StreamStats()]) == (0.0, 0.0, 0.0)

    def test_one_module_cluster_summary_is_the_module_summary(self):
        module = _module_result()
        cluster = ClusterRunResult(
            l2_period=120.0,
            module_names=["M1"],
            global_arrivals=np.array([500.0, 300.0]),
            global_predictions=np.array([480.0, 310.0]),
            gamma_history=np.ones((2, 1)),
            total_computers_on=module.computers_on,
            per_module_on=module.computers_on[:, None],
            target_response=4.0,
            module_results=[module],
            l2_stats=ControllerStats(),
        )
        assert cluster.summary() == module.summary()

    def test_finalizations_fold_like_results(self):
        result = _module_result()
        final = ModuleFinalization(
            module=0,
            energy_base=result.energy_base,
            energy_dynamic=result.energy_dynamic,
            energy_transient=result.energy_transient,
            switch_ons=result.switch_ons,
            switch_offs=result.switch_offs,
            l0_stats=result.l0_stats,
            l1_stats=result.l1_stats,
        )
        quality = (1.5, 0.25, 2.0)
        assert fold_summary([final], quality, 0.5) == fold_summary(
            [result], quality, 0.5
        )


def _summary(**changes):
    fields = dict(
        mean_response=1.234,
        violation_fraction=0.0525,
        total_energy=1500.4,
        base_energy=1000.0,
        dynamic_energy=450.2,
        transient_energy=50.2,
        switch_ons=3,
        switch_offs=2,
        mean_computers_on=2.5,
        controller_seconds=9.87,
        l1_mean_states=12.0,
    )
    fields.update(changes)
    return RunSummary(**fields)


class TestDeterministicStr:
    def test_renders_the_reported_figures(self):
        assert _summary().deterministic_str() == (
            "mean r = 1.23 s | violations = 5.25% | energy = 1500 "
            "(base 1000 / dyn 450 / boot 50) | switches on/off = 3/2 | "
            "avg on = 2.50"
        )

    def test_wall_clock_changes_only_the_full_rendering(self):
        slow, fast = _summary(), _summary(controller_seconds=0.01)
        assert slow.deterministic_str() == fast.deterministic_str()
        assert str(slow) == slow.deterministic_str() + " | ctrl = 9.87 s"
        assert str(fast) != str(slow)
