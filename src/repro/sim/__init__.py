"""Simulation harness: multi-rate co-simulation of plant and hierarchy.

:class:`~repro.sim.engine.ModuleSimulation` drives one module (Fig. 2b):
the fluid plant advances in T_L0 periods, the L0 controllers pick
frequencies every period, and the L1 controller (or a heuristic baseline)
re-decides alpha/gamma every T_L1. :class:`~repro.sim.engine.ClusterSimulation`
composes several modules under an L2 controller (Fig. 2a) — or, with
``baseline=``, pins every module to a heuristic policy.

Both share one stepwise protocol (``reset``/``step``/``steps``/
``finish``; every ``reset`` starts a fresh run) with observer hooks
(:mod:`~repro.sim.observers`); results come back as structured time
series (:mod:`~repro.sim.results`). Per-run
knobs — the control-period kernel among them — travel in
:class:`~repro.sim.options.EngineOptions`.
"""

from repro.sim.engine import ClusterSimulation, ModuleSimulation
from repro.sim.experiments import overhead_experiment
from repro.sim.options import KERNELS, EngineOptions
from repro.sim.observers import (
    L1DecisionEvent,
    L2DecisionEvent,
    ObserverList,
    PeriodEvent,
    ProgressObserver,
    SimulationObserver,
    StepEvent,
)
from repro.sim.results import ClusterRunResult, ModuleRunResult, RunSummary
from repro.sim.shard import ModuleShardRunner

__all__ = [
    "KERNELS",
    "ClusterRunResult",
    "ClusterSimulation",
    "EngineOptions",
    "L1DecisionEvent",
    "L2DecisionEvent",
    "ModuleRunResult",
    "ModuleShardRunner",
    "ModuleSimulation",
    "ObserverList",
    "PeriodEvent",
    "ProgressObserver",
    "RunSummary",
    "SimulationObserver",
    "StepEvent",
    "overhead_experiment",
]
