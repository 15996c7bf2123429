"""Scenario-first public API: declare an experiment, then run it.

Three pieces:

* **Declarative specs** (:mod:`~repro.scenario.spec`) — frozen,
  eagerly-validated dataclasses (:class:`ScenarioSpec` and its parts)
  that serialise to/from dicts and JSON, so experiments can be stored,
  diffed, swept, and shipped.
* **A fluent builder** (:class:`~repro.scenario.builder.Scenario`) —
  ``Scenario.module(m=4).workload("synthetic").baseline("threshold-dvfs")
  .build()``.
* **A registry + runner** (:mod:`~repro.scenario.registry`,
  :func:`~repro.scenario.runner.run_scenario`) — named, discoverable
  scenarios (``repro run paper/fig6-cluster16``) executed on the
  stepwise simulation engine, with observer hooks for streaming
  consumption.
"""

from repro.scenario.builder import Scenario
from repro.scenario.registry import (
    RegisteredScenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenario.runner import (
    WarmedArtifact,
    build_simulation,
    resolve_control_params,
    run_scenario,
    warm_scenario,
)
from repro.scenario.spec import (
    ControlSpec,
    FaultSpec,
    PlantSpec,
    ScenarioSpec,
    ServiceSpec,
    WorkloadSpec,
)

__all__ = [
    "ControlSpec",
    "FaultSpec",
    "PlantSpec",
    "RegisteredScenario",
    "Scenario",
    "ScenarioSpec",
    "ServiceSpec",
    "WarmedArtifact",
    "WorkloadSpec",
    "build_simulation",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "resolve_control_params",
    "run_scenario",
    "scenario_names",
    "warm_scenario",
]
