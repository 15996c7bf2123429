"""ControlSpec.map_cache threading and the warm_scenario entry point."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.maps import map_stats, reset_map_stats
from repro.maps.provider import clear_map_memo
from repro.scenario import (
    ControlSpec,
    Scenario,
    ScenarioSpec,
    run_scenario,
    warm_scenario,
)


@pytest.fixture(autouse=True)
def _fresh_process_state():
    reset_map_stats()
    clear_map_memo()
    yield
    reset_map_stats()
    clear_map_memo()


class TestSpecValidation:
    def test_accepts_directory_path(self):
        control = ControlSpec(map_cache="out/maps")
        assert control.map_cache == "out/maps"

    def test_rejects_empty_path(self):
        with pytest.raises(ConfigurationError, match="map_cache"):
            ControlSpec(map_cache="")

    def test_rejects_non_string(self):
        with pytest.raises(ConfigurationError, match="map_cache"):
            ControlSpec(map_cache=7)

    def test_rejects_baseline_mode(self):
        # Baselines train no maps; a cache request there is a mistake.
        with pytest.raises(ConfigurationError, match="hierarchy"):
            ControlSpec(mode="threshold-dvfs", map_cache="out/maps")

    def test_round_trips_through_json(self):
        spec = Scenario.module(m=4).map_cache("out/maps").build()
        rebuilt = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert rebuilt.control.map_cache == "out/maps"
        assert rebuilt == spec

    def test_reachable_through_overrides(self):
        spec = ScenarioSpec()
        overridden = spec.with_overrides(**{"control.map_cache": "x/maps"})
        assert overridden.control.map_cache == "x/maps"


class TestBuilder:
    def test_map_cache_sets_control_field(self, tmp_path):
        spec = Scenario.cluster(p=2).map_cache(tmp_path / "maps").build()
        assert spec.control.map_cache == str(tmp_path / "maps")


class TestWarmScenario:
    def test_module_scenario_warms_behavior_maps_only(self, tmp_path):
        spec = (
            Scenario.module(m=4)
            .workload("steady", rate=40.0, samples=2)
            .map_cache(tmp_path)
            .build()
        )
        artifacts = warm_scenario(spec)
        assert {a.kind for a in artifacts} == {"behavior"}
        assert len(artifacts) == 4  # c1..c4 are distinct machines
        assert all(a.source == "trained" for a in artifacts)
        assert map_stats().behavior_trainings == 4
        assert map_stats().module_trainings == 0

    def test_second_warm_performs_zero_trainings(self, tmp_path):
        spec = (
            Scenario.module(m=4)
            .workload("steady", rate=40.0, samples=2)
            .map_cache(tmp_path)
            .build()
        )
        warm_scenario(spec)
        clear_map_memo()
        reset_map_stats()
        artifacts = warm_scenario(spec)
        assert map_stats().trainings == 0
        assert all(a.source == "cache" for a in artifacts)

    def test_an_int_period_reuses_the_maps_its_float_twin_warmed(self, tmp_path):
        def spec(period):
            return (
                Scenario.cluster(p=2)
                .workload("steady", rate=40.0, samples=2)
                .control(l1={"period": period})
                .map_cache(tmp_path)
                .build()
            )

        warm_scenario(spec(120.0))
        clear_map_memo()
        reset_map_stats()
        artifacts = warm_scenario(spec(120))
        assert map_stats().trainings == 0
        assert artifacts and all(a.source == "cache" for a in artifacts)

    def test_baseline_scenario_needs_no_maps(self):
        spec = Scenario.module(m=4).baseline("threshold-dvfs").build()
        assert warm_scenario(spec) == []
        assert map_stats().trainings == 0

    def test_explicit_cache_overrides_spec(self, tmp_path):
        spec = Scenario.module(m=4).build()  # no map_cache in the spec
        warm_scenario(spec, map_cache=str(tmp_path))
        assert map_stats().cache_misses == 4
        assert any(tmp_path.iterdir())

    def test_env_var_backs_runs_without_a_spec_field(
        self, tmp_path, monkeypatch
    ):
        # The documented chain: control.map_cache > $REPRO_MAP_CACHE.
        # A warm pass through the env var must be read by a plain run.
        from repro.maps.cache import CACHE_ENV_VAR

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        spec = (
            Scenario.module(m=4)
            .workload("steady", rate=40.0, samples=2)
            .control(warmup_intervals=1)
            .build()
        )
        warm_scenario(spec)
        assert map_stats().behavior_trainings == 4
        assert any(tmp_path.iterdir())

        clear_map_memo()
        reset_map_stats()
        run_scenario(spec)
        assert map_stats().trainings == 0
        assert map_stats().cache_hits == 4

    def test_runs_without_cache_or_env_touch_no_disk(self, monkeypatch):
        from repro.maps.cache import CACHE_ENV_VAR

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        spec = (
            Scenario.module(m=4)
            .workload("steady", rate=40.0, samples=2)
            .control(warmup_intervals=1)
            .build()
        )
        run_scenario(spec)
        assert map_stats().cache_hits == 0
        assert map_stats().cache_misses == 0

    def test_warmed_run_trains_nothing_and_matches_cold(self, tmp_path):
        spec = (
            Scenario.module(m=4)
            .workload("steady", rate=40.0, samples=2)
            .control(warmup_intervals=1)
            .map_cache(tmp_path)
            .build()
        )
        warm_scenario(spec)
        clear_map_memo()
        reset_map_stats()
        warm = run_scenario(spec)
        assert map_stats().trainings == 0

        clear_map_memo()
        reset_map_stats()
        cold = run_scenario(spec.with_overrides(**{"control.map_cache": None}))
        assert map_stats().trainings == 4
        assert (
            warm.summary().deterministic_dict()
            == cold.summary().deterministic_dict()
        )
