"""``repro serve``'s flags become spec overrides before the daemon builds a run."""

import pytest

from repro.common import ConfigurationError
from repro.scenario import get_scenario
from repro.service.daemon import ServeConfig, resolve_service_scenario


class TestResolveServiceScenario:
    def test_without_service_flags_the_registered_spec_runs(self):
        config = ServeConfig(scenario="paper/fig4-module4", samples=10, seed=3)
        assert resolve_service_scenario(config) == get_scenario(
            "paper/fig4-module4", samples=10, seed=3
        )

    def test_each_flag_lands_on_its_spec_field(self, tmp_path):
        config = ServeConfig(
            scenario="module-failover",
            tick_seconds=0.05,
            deadline_seconds=2.0,
            override_ttl_seconds=30.0,
            shed_on_hold=0.25,
            map_cache=str(tmp_path),
        )
        scenario = resolve_service_scenario(config)
        assert scenario.service.tick_seconds == 0.05
        assert scenario.service.deadline_seconds == 2.0
        assert scenario.service.override_ttl_seconds == 30.0
        assert scenario.service.shed_fraction_on_hold == 0.25
        assert scenario.control.map_cache == str(tmp_path)
        unchanged = get_scenario("module-failover")
        assert (scenario.plant, scenario.workload) == (
            unchanged.plant, unchanged.workload
        )

    def test_an_out_of_range_flag_fails_in_one_line(self):
        config = ServeConfig(scenario="paper/fig4-module4", shed_on_hold=1.5)
        with pytest.raises(ConfigurationError) as caught:
            resolve_service_scenario(config)
        message = str(caught.value)
        assert "service.shed_fraction_on_hold must be in [0, 1]" in message
        assert "\n" not in message
