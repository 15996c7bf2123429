"""One run's plant state: every computer's queue, power state and setting.

A run's :class:`~repro.cluster.computer.Computer`,
:class:`~repro.cluster.lifecycle.MachineLifecycle` and
:class:`~repro.cluster.module.Module` objects keep none of these values
themselves: each reads and writes its own cell of one
:class:`PlantState`, and the vector kernel
(:class:`~repro.sim.kernels.ClusterVectorExecutor`) steps the same
arrays in place. Controller and plant act on one state, so nothing is
copied between the objects and the arrays at a control-period boundary.
"""

from __future__ import annotations

import numpy as np

#: Power-state codes, in :class:`~repro.cluster.lifecycle.PowerState` order.
OFF, BOOTING, ON, DRAINING, FAILED = range(5)


class PlantState:
    """Every computer's queue, power state, boot countdown and DVFS setting.

    One ``(modules, computers)`` array per quantity, padded to the widest
    module; module i's computer j is cell ``[i, j]``. A pad cell stays
    off, empty and at ``phi = 1.0``, which keeps batched expressions
    finite. A standalone computer or module gets a one-row state of its
    own.

    ``phis`` and ``frequencies`` hold each setting's scaling factor and
    GHz, written with the setting. Every write that really changes a
    power state adds one to ``power_changes``, and every one that
    changes a setting to ``setting_changes``, so a reader can keep what
    it derived from them until either counter moves.
    """

    def __init__(self, sizes: "list[int]") -> None:
        shape = (len(sizes), max(sizes))
        self.queues = np.zeros(shape)
        self.power_states = np.full(shape, OFF, dtype=np.int64)
        self.boot_remaining = np.zeros(shape)
        self.settings = np.zeros(shape, dtype=np.intp)
        self.phis = np.ones(shape)
        self.frequencies = np.zeros(shape)
        self.power_changes = 0
        self.setting_changes = 0
