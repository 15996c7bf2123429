"""repro — Hierarchical LLC for autonomic performance management.

A reproduction of Kandasamy, Abdelwahed & Khandekar, *"A Hierarchical
Optimization Framework for Autonomic Performance Management of Distributed
Computing Systems"* (ICDCS 2006): a three-level limited-lookahead control
hierarchy that operates a heterogeneous web-server cluster in
energy-efficient fashion while meeting a response-time target.

Quick start — declare a scenario, then run it::

    from repro import Scenario, run_scenario

    spec = Scenario.module(m=4).workload("synthetic", samples=240).build()
    result = run_scenario(spec)
    print(result.summary())

Or run a registered scenario by name (``repro list-scenarios`` shows
them all; ``repro run paper/fig6-cluster16`` does the same from the
shell)::

    from repro import run_scenario

    result = run_scenario("paper/fig4-module4")

Scenarios are frozen, validated, JSON-serialisable specs — store them,
diff them, sweep them. Baselines apply at module *and* cluster level
(``Scenario.cluster(p=4).baseline("threshold-dvfs")``), and failure
drills are first-class (``Scenario.module().with_failures(...)`` or the
registered ``module-failover``). Long runs can stream through observer
hooks instead of holding whole result arrays::

    from repro import run_scenario
    from repro.sim import SimulationObserver

    class Watcher(SimulationObserver):
        def on_l1_decision(self, event):
            print(event.period, event.alpha)

    run_scenario("module-failover", observers=(Watcher(),))

Package map:

==================  =====================================================
``repro.scenario``  the public API: declarative ``ScenarioSpec`` configs,
                    the fluent ``Scenario`` builder, the scenario
                    registry, and ``run_scenario``
``repro.core``      the generic LLC framework (lookahead search, costs,
                    constraints, uncertainty bands, quantised simplexes)
``repro.controllers``  the L0/L1/L2 hierarchy and threshold baselines
``repro.forecast``  Kalman workload prediction, EWMA filters
``repro.queueing``  fluid difference model and exact FCFS server
``repro.cluster``   the plant: DVFS processors, power states, modules
``repro.workload``  synthetic and WC'98-shaped traces, Zipf store
``repro.approximation``  lookup tables and CART regression trees
``repro.maps``      the trained-map artifact layer: lockstep offline
                    training plans, content digests, the on-disk
                    content-addressed cache, and the map provider
``repro.sim``       the stepwise co-simulation engine, observer hooks,
                    and structured results
``repro.sweep``     declarative sweep specs over scenario fields,
                    serial/process-pool execution into JSONL result
                    stores, and group-by aggregation
==================  =====================================================

Families of runs — the paper's figures are really statistics over
seeds and sizes — go through the sweep subsystem::

    from repro.sweep import GridAxis, SweepSpec, run_sweep, write_report

    sweep = SweepSpec(
        base="paper/fig4-module4",
        axes=(GridAxis(field="seed", values=(0, 1, 2, 3)),),
    )
    run_sweep(sweep, "out/seeds", workers=4)
    print(write_report("out/seeds"))

The pre-1.1 entry points (``module_experiment``, ``cluster_experiment``)
are retired; calling them raises a ``ConfigurationError`` naming the
``run_scenario`` replacement.
"""

from repro.cluster import (
    ClusterSpec,
    ComputerSpec,
    ModuleSpec,
    paper_cluster_spec,
    paper_module_spec,
    processor_profile,
    scaled_module_spec,
)
from repro.controllers import (
    AlwaysOnMaxController,
    L0Controller,
    L0Params,
    L1Controller,
    L1Params,
    L2Controller,
    L2Params,
    ThresholdDvfsController,
    ThresholdOnOffController,
    make_baseline,
)
from repro.scenario import (
    ControlSpec,
    FaultSpec,
    PlantSpec,
    Scenario,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)
from repro.sim import (
    ClusterSimulation,
    EngineOptions,
    ModuleSimulation,
    SimulationObserver,
    overhead_experiment,
)
from repro.maps import MapCache, MapProvider, TrainingPlan, map_stats
from repro.scenario import warm_scenario
from repro.sweep import (
    GridAxis,
    ListAxis,
    RandomAxis,
    SweepSpec,
    get_sweep,
    list_sweeps,
    register_sweep,
    run_sweep,
    write_report,
)
from repro.workload import synthetic_trace, wc98_trace

__version__ = "1.1.0"

__all__ = [
    "AlwaysOnMaxController",
    "ClusterSimulation",
    "ClusterSpec",
    "ComputerSpec",
    "ControlSpec",
    "EngineOptions",
    "FaultSpec",
    "GridAxis",
    "L0Controller",
    "L0Params",
    "L1Controller",
    "L1Params",
    "L2Controller",
    "L2Params",
    "ListAxis",
    "MapCache",
    "MapProvider",
    "ModuleSimulation",
    "ModuleSpec",
    "PlantSpec",
    "RandomAxis",
    "Scenario",
    "ScenarioSpec",
    "SimulationObserver",
    "SweepSpec",
    "TrainingPlan",
    "ThresholdDvfsController",
    "ThresholdOnOffController",
    "WorkloadSpec",
    "get_scenario",
    "get_sweep",
    "list_scenarios",
    "list_sweeps",
    "make_baseline",
    "map_stats",
    "overhead_experiment",
    "paper_cluster_spec",
    "paper_module_spec",
    "processor_profile",
    "register_scenario",
    "register_sweep",
    "run_scenario",
    "run_sweep",
    "scaled_module_spec",
    "synthetic_trace",
    "warm_scenario",
    "wc98_trace",
    "write_report",
]
