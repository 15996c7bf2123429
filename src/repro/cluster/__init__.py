"""Cluster plant substrate: DVFS processors, power states, modules.

Models the physical system of Fig. 1(a): a cluster of heterogeneous
computers, each with a discrete DVFS frequency set, a base power cost when
on, a boot dead time when switched on, and an FCFS queue. Computers are
grouped into modules (the unit the L1 controller manages); a dispatcher
splits arrivals by quantised load fractions (the paper's gamma vectors).
"""

from repro.cluster.computer import Computer, StepResult
from repro.cluster.dispatcher import WeightedDispatcher
from repro.cluster.lifecycle import MachineLifecycle, PowerState
from repro.cluster.module import Module
from repro.cluster.power import EnergyMeter
from repro.cluster.processor import (
    PROCESSOR_PROFILES,
    ProcessorSpec,
    processor_profile,
)
from repro.cluster.specs import (
    ComputerSpec,
    ModuleSpec,
    ClusterSpec,
    paper_cluster_spec,
    paper_module_spec,
    scaled_module_spec,
)

__all__ = [
    "ClusterSpec",
    "Computer",
    "ComputerSpec",
    "EnergyMeter",
    "MachineLifecycle",
    "Module",
    "ModuleSpec",
    "PROCESSOR_PROFILES",
    "PowerState",
    "ProcessorSpec",
    "StepResult",
    "WeightedDispatcher",
    "paper_cluster_spec",
    "paper_module_spec",
    "processor_profile",
    "scaled_module_spec",
]
