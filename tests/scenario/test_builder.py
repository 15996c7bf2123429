"""The fluent Scenario builder: chaining, defaults, eager validation."""

import pytest

from repro.common import ConfigurationError
from repro.scenario import Scenario


class TestEntryPoints:
    def test_module_entry(self):
        spec = Scenario.module(m=6).build()
        assert spec.plant.kind == "module"
        assert spec.plant.m == 6

    def test_cluster_entry(self):
        spec = Scenario.cluster(p=5, computers_per_module=3).build()
        assert spec.plant.kind == "cluster"
        assert spec.plant.p == 5
        assert spec.plant.computers_per_module == 3

    def test_bad_sizes_fail_at_entry(self):
        with pytest.raises(ConfigurationError):
            Scenario.module(m=0)
        with pytest.raises(ConfigurationError):
            Scenario.cluster(p=0)


class TestWorkloadDefaults:
    def test_module_defaults_to_synthetic(self):
        assert Scenario.module().build().workload.kind == "synthetic"

    def test_cluster_defaults_to_wc98(self):
        assert Scenario.cluster().build().workload.kind == "wc98"

    def test_workload_seed_shorthand(self):
        spec = Scenario.module().workload("synthetic", samples=60, seed=3).build()
        assert spec.seed == 3
        assert spec.workload.samples == 60

    def test_unknown_workload_fails_at_call_site(self):
        with pytest.raises(ConfigurationError):
            Scenario.module().workload("fractal")


class TestControlChaining:
    def test_baseline_sets_mode_and_params(self):
        spec = Scenario.module().baseline("threshold-on-off", upper=0.9).build()
        assert spec.control.mode == "threshold-on-off"
        assert spec.control.baseline_params == {"upper": 0.9}

    def test_unknown_baseline_fails_at_call_site(self):
        with pytest.raises(ConfigurationError):
            Scenario.module().baseline("do-what-i-mean")

    def test_control_overrides_accumulate(self):
        spec = (
            Scenario.module()
            .control(l0={"target_response": 2.0})
            .control(l1={"gamma_step": 0.1}, warmup_intervals=6)
            .build()
        )
        assert spec.control.l0 == {"target_response": 2.0}
        assert spec.control.l1 == {"gamma_step": 0.1}
        assert spec.control.warmup_intervals == 6

    def test_bad_control_override_fails_at_call_site(self):
        with pytest.raises(ConfigurationError):
            Scenario.module().control(l0={"bogus": 1})


class TestFailuresAndSeed:
    def test_failures_accumulate(self):
        spec = (
            Scenario.module()
            .with_failures((60.0, 0, "fail"))
            .with_failures((120.0, 0, "repair"))
            .build()
        )
        assert spec.faults.events == (
            (60.0, 0, "fail"),
            (120.0, 0, "repair"),
        )

    def test_out_of_range_index_fails_at_call_site(self):
        with pytest.raises(ConfigurationError):
            Scenario.module(m=4).with_failures((0.0, 4, "fail"))

    def test_negative_time_fails_at_call_site(self):
        with pytest.raises(ConfigurationError):
            Scenario.module().with_failures((-5.0, 0, "fail"))

    def test_baseline_plus_failures_rejected_at_build(self):
        builder = (
            Scenario.module()
            .baseline("always-on-max")
            .with_failures((60.0, 0, "fail"))
        )
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.module().seed("zero")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.module().seed(-1)

    def test_metadata(self):
        spec = Scenario.module().describe("why").build()
        assert spec.description == "why"


class TestClusterFailuresBuilder:
    def test_cluster_failures_take_module_index(self):
        spec = (
            Scenario.cluster(p=2, computers_per_module=2)
            .workload("steady", samples=20, rate=10.0)
            .with_failures((60.0, 1, 1, "fail"))
            .build()
        )
        assert spec.faults.events == ((60.0, 1, 1, "fail"),)

    def test_cluster_failures_validate_indices(self):
        with pytest.raises(ConfigurationError):
            Scenario.cluster(p=2, computers_per_module=2).with_failures(
                (60.0, 4, 0, "fail")
            )


class TestKernelAndControlFields:
    def test_kernel_selects_the_control_period_kernel(self):
        assert Scenario.module().build().control.kernel == "vector"
        assert Scenario.module().kernel("scalar").build().control.kernel == "scalar"
        with pytest.raises(ConfigurationError, match="kernel"):
            Scenario.module().kernel("gpu")

    def test_control_sets_l2_params_and_mean_work(self):
        spec = (
            Scenario.cluster(p=2)
            .control(l2={"gamma_step": 0.25}, mean_work=0.02)
            .build()
        )
        assert spec.control.l2 == {"gamma_step": 0.25}
        assert spec.control.mean_work == 0.02

    def test_an_unknown_workload_field_fails_in_one_line(self):
        with pytest.raises(ConfigurationError, match="^invalid workload fields: "):
            Scenario.module().workload("synthetic", burstiness=3)
