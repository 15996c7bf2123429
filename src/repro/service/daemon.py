"""``repro serve`` wiring: scenario → plant → supervisor → control socket.

The daemon materialises a registered scenario into a simulation, wraps
it in the requested plant (simulated or replay), runs the
:class:`~repro.service.supervisor.AutonomicSupervisor` on an asyncio
loop with a control server alongside, and shuts down cleanly on
SIGTERM/SIGINT — audit log flushed, decision and summary artifacts
written.

The summary artifact is byte-identical to ``repro run --json`` for the
same scenario (both render :func:`repro.common.schema.run_payload`
through :func:`~repro.common.schema.dump_json`), and the decision
artifact is the same JSONL stream the batch
:class:`~repro.sim.observers.DecisionRecorder` emits — which is what
the CI service-smoke ``cmp`` gates compare.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass

from repro.common.errors import ControlError
from repro.common.schema import dump_json, run_payload
from repro.obs.http import ObservabilityHTTPServer
from repro.obs.instrument import TelemetryObserver
from repro.obs.registry import global_registry
from repro.scenario import build_simulation, get_scenario
from repro.scenario.runner import build_workload, resolve_control_params
from repro.service.feed import (
    END_LINE,
    FileTailFeed,
    SocketFeed,
    observation_line,
)
from repro.service.manager import AuditLog
from repro.service.plant import ReplayPlant, SimulatedPlant
from repro.service.server import ControlServer
from repro.service.supervisor import AutonomicSupervisor

#: Default ports for the operator and feed sockets.
DEFAULT_CONTROL_PORT = 7700
DEFAULT_FEED_PORT = 7701

#: Plant implementations ``repro serve --plant`` can pick.
PLANT_KINDS = ("simulated", "replay")


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs beyond the scenario itself."""

    scenario: str
    samples: "int | None" = None
    seed: "int | None" = None
    plant: str = "simulated"
    feed_host: str = "127.0.0.1"
    feed_port: int = DEFAULT_FEED_PORT
    feed_file: "str | None" = None
    control_host: str = "127.0.0.1"
    control_port: int = DEFAULT_CONTROL_PORT
    tick_seconds: "float | None" = None
    deadline_seconds: "float | None" = None
    override_ttl_seconds: "float | None" = None
    shed_on_hold: "float | None" = None
    audit_log: "str | None" = None
    summary_out: "str | None" = None
    decisions_out: "str | None" = None
    map_cache: "str | None" = None
    #: Optional read-only HTTP listener (GET /metrics, /status,
    #: /healthz). ``None`` disables it; 0 binds an ephemeral port.
    http_host: str = "127.0.0.1"
    http_port: "int | None" = None


def resolve_service_scenario(config: ServeConfig):
    """The scenario spec with the CLI's service overrides applied."""
    scenario = get_scenario(
        config.scenario, samples=config.samples, seed=config.seed
    )
    overrides: dict = {}
    if config.tick_seconds is not None:
        overrides["service.tick_seconds"] = config.tick_seconds
    if config.deadline_seconds is not None:
        overrides["service.deadline_seconds"] = config.deadline_seconds
    if config.override_ttl_seconds is not None:
        overrides["service.override_ttl_seconds"] = config.override_ttl_seconds
    if config.shed_on_hold is not None:
        overrides["service.shed_fraction_on_hold"] = config.shed_on_hold
    if config.map_cache is not None:
        overrides["control.map_cache"] = config.map_cache
    return scenario.with_overrides(**overrides) if overrides else scenario


def feed_lines(scenario):
    """The scenario's workload as wire lines (``repro feed``'s payload).

    Rebinned exactly as the engine rebins, so a replay of these lines is
    bit-identical to the batch run of the same scenario.
    """
    l0_params, _, _ = resolve_control_params(scenario)
    trace, work_series = build_workload(scenario, l0_params.period)
    trace = trace.rebinned(l0_params.period)
    for k in range(len(trace)):
        yield observation_line(
            k,
            float(trace.counts[k]),
            work=None if work_series is None else float(work_series[k]),
        )
    yield END_LINE


def run_service(config: ServeConfig) -> int:
    """Run the daemon to completion; returns a process exit code."""
    if config.plant not in PLANT_KINDS:
        raise ControlError(
            f"plant must be one of {PLANT_KINDS}, got {config.plant!r}"
        )
    scenario = resolve_service_scenario(config)
    simulation = build_simulation(scenario)
    return asyncio.run(_serve(scenario, simulation, config))


async def _serve(scenario, simulation, config: ServeConfig) -> int:
    feed = None
    if config.plant == "replay":
        if config.feed_file is not None:
            feed = await FileTailFeed(config.feed_file).start()
            feed_note = f"feed file {config.feed_file}"
        else:
            feed = await SocketFeed(config.feed_host, config.feed_port).start()
            feed_note = f"feed {feed.host}:{feed.port}"
        plant = ReplayPlant(simulation, feed)
    else:
        plant = SimulatedPlant(simulation)
        feed_note = "simulated workload"
    audit = AuditLog(path=config.audit_log)
    registry = global_registry()
    simulation.set_telemetry(metrics=registry)
    supervisor = AutonomicSupervisor(
        scenario, plant, audit_log=audit, registry=registry
    )
    supervisor.start(observers=(TelemetryObserver(registry),))
    server = await ControlServer(
        supervisor, config.control_host, config.control_port
    ).start()
    http_server = None
    http_note = ""
    if config.http_port is not None:
        http_server = await ObservabilityHTTPServer(
            registry,
            status_provider=supervisor.status,
            host=config.http_host,
            port=config.http_port,
        ).start()
        http_note = f", http {http_server.host}:{http_server.port}"
    print(
        f"serving {scenario.name or config.scenario}: control "
        f"{server.host}:{server.port}, {feed_note}{http_note}",
        file=sys.stderr,
        flush=True,
    )
    loop = asyncio.get_running_loop()
    handled_signals = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, supervisor.request_stop)
            handled_signals.append(signum)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    try:
        result = await supervisor.run()
    finally:
        for signum in handled_signals:
            loop.remove_signal_handler(signum)
        await server.close()
        if http_server is not None:
            await http_server.close()
        if feed is not None:
            await feed.close()
        if config.decisions_out:
            with open(config.decisions_out, "w") as handle:
                for line in supervisor.decision_lines():
                    handle.write(line + "\n")
        audit.close()
    if result is not None and config.summary_out:
        payload = run_payload(
            scenario.name or config.scenario, result.summary()
        )
        with open(config.summary_out, "w") as handle:
            handle.write(dump_json(payload) + "\n")
    print(
        f"service {supervisor.state} after {plant.steps_taken}/"
        f"{plant.total_steps} steps "
        f"({supervisor.deadline_misses} deadline misses, "
        f"{audit.entries} audit records)",
        file=sys.stderr,
        flush=True,
    )
    return 0
