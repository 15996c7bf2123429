"""Queueing substrate: fluid difference model and request-level FCFS.

The paper models each computer as a single FCFS queue whose dynamics are
summarised by difference equations (eqs. 5-7). This package provides that
fluid model (:mod:`~repro.queueing.fluid`), an exact request-granular FCFS
server based on the Lindley/departure recursion
(:mod:`~repro.queueing.lindley`), and response-time bookkeeping
(:mod:`~repro.queueing.metrics`).
"""

from repro.queueing.fluid import FluidServerModel, fluid_step
from repro.queueing.lindley import FcfsServer
from repro.queueing.metrics import ResponseStats

__all__ = [
    "FcfsServer",
    "FluidServerModel",
    "ResponseStats",
    "fluid_step",
]
