"""Registry completeness and lookup semantics."""

import json

import pytest

from repro.common import ConfigurationError
from repro.scenario import (
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)

#: Entries the public interface promises (ISSUE / docs / CI reference them).
PROMISED = (
    "paper/fig4-module4",
    "paper/fig6-cluster16",
    "paper/fig6-cluster20",
    "paper/overhead-m6",
    "paper/overhead-m10",
    "cluster-baseline-showdown",
    "cluster-always-on-max",
    "module-failover",
    "workloads/trace-replay",
    "workloads/flashcrowd-module",
    "workloads/flashcrowd-cluster16",
    "workloads/zipfmix-module",
    "workloads/zipfmix-cluster16",
)


class TestCompleteness:
    def test_promised_entries_present(self):
        names = scenario_names()
        for name in PROMISED:
            assert name in names

    def test_every_registered_scenario_constructs_and_validates(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert isinstance(spec, ScenarioSpec)
            assert spec.name == name
            assert spec.description, f"{name} needs a description"
            # Round-trips, so it can be stored and shipped.
            assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_every_registered_scenario_has_a_buildable_plant(self):
        for name in scenario_names():
            plant = get_scenario(name).plant.build()
            count = plant.size if hasattr(plant, "size") else plant.module_count
            assert count > 0

    def test_listing_matches_names(self):
        rows = list_scenarios()
        assert tuple(row.name for row in rows) == scenario_names()
        assert all(row.description for row in rows)

    def test_every_workload_kind_has_a_registered_scenario(self):
        # The registry is the CLI's front door: a workload kind nobody
        # can `repro run` is dead code, so an unregistered kind fails
        # the build (the CI completeness gate greps for the same names).
        from repro.scenario.spec import WORKLOAD_KINDS

        registered_kinds = {
            get_scenario(name).workload.kind for name in scenario_names()
        }
        missing = set(WORKLOAD_KINDS) - registered_kinds
        assert not missing, (
            f"workload kinds without a registered scenario: {sorted(missing)}"
        )

    def test_packaged_trace_file_exists(self):
        import os

        from repro.scenario.registry import packaged_trace_path

        assert os.path.isfile(packaged_trace_path())


class TestLookup:
    def test_overrides_apply(self):
        spec = get_scenario("paper/fig4-module4", samples=24, seed=5)
        assert spec.workload.samples == 24
        assert spec.seed == 5

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(ConfigurationError, match="paper/fig4-module4"):
            get_scenario("paper/fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_scenario("paper/fig4-module4")
            def _dupe():
                raise AssertionError("never called")

    def test_cluster_baseline_scenario_is_declarative(self):
        """The cluster-with-baseline setting the old API could not express."""
        spec = get_scenario("cluster-baseline-showdown")
        assert spec.plant.kind == "cluster"
        assert spec.control.is_baseline
        assert spec.control.mode == "threshold-dvfs"

    def test_failover_scenario_carries_faults(self):
        spec = get_scenario("module-failover")
        assert spec.faults.events
        kinds = {event[2] for event in spec.faults.events}
        assert kinds == {"fail", "repair"}
