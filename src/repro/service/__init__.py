"""Live autonomic service mode: the controller hierarchy as a daemon.

The batch engine replays a whole horizon and returns a result; this
subsystem runs the same L2/L1/L0 hierarchy *online*, against a pluggable
plant, for as long as traffic keeps arriving:

* **Plants** (:mod:`~repro.service.plant`) — the seam between the
  controllers and whatever they manage. :class:`SimulatedPlant` drives
  the stepwise simulation engine from its scenario workload;
  :class:`ReplayPlant` drives it from an external observation feed
  (newline-JSON over TCP or a tailed file), bit-identical to the batch
  path when fed the same series. Hardware-in-the-loop is "one more
  plant" behind the same interface.
* **The supervisor** (:mod:`~repro.service.supervisor`) — an asyncio
  event loop that updates the Kalman forecasts online, issues
  L2→L1→L0 decisions within a per-period deadline budget, and degrades
  gracefully on a miss: the previous allocation holds, the miss is
  audited, and the next period resyncs.
* **The operator surface** (:mod:`~repro.service.manager`,
  :mod:`~repro.service.server`) — status snapshots (allocations,
  forecasts, the live :class:`~repro.sim.observers.StreamStats`
  aggregates), manual overrides with expiry, and an append-only
  command/decision audit log, served over a line-JSON control socket
  (``repro ctl status|override|shed|metrics|history``), plus load
  shedding: drop a bounded fraction of incoming load — by operator
  order or automatically after deadline-held periods — with every
  dropped request audited and counted (``repro_shed_total``).
* **The daemon** (:mod:`~repro.service.daemon`) — ``repro serve`` wiring:
  scenario → simulation → plant → supervisor → control server, with
  clean SIGTERM shutdown and batch-byte-identical summary/decision
  artifacts.
"""

from repro.service.daemon import ServeConfig, run_service
from repro.service.feed import (
    FileTailFeed,
    Observation,
    SocketFeed,
    observation_line,
    parse_observation,
    send_observations,
)
from repro.service.manager import (
    AuditLog,
    Override,
    OverrideBook,
    ShedDirective,
)
from repro.service.plant import Plant, ReplayPlant, SimulatedPlant
from repro.service.server import ControlServer, send_command
from repro.service.supervisor import AutonomicSupervisor

__all__ = [
    "AuditLog",
    "AutonomicSupervisor",
    "ControlServer",
    "FileTailFeed",
    "Observation",
    "Override",
    "OverrideBook",
    "Plant",
    "ReplayPlant",
    "ServeConfig",
    "ShedDirective",
    "SimulatedPlant",
    "SocketFeed",
    "observation_line",
    "parse_observation",
    "run_service",
    "send_command",
    "send_observations",
]
