"""Load shedding: operator directives, TTLs, auto policy, full accounting."""

import asyncio
import json
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.controllers.l1 import L1Controller
from repro.obs import MetricsRegistry
from repro.scenario import build_simulation, get_scenario
from repro.service import AutonomicSupervisor, ControlServer, SimulatedPlant


class FakeClock:
    def __init__(self, value=0.0):
        self.value = value

    def __call__(self):
        return self.value


def make_supervisor(samples=6, clock=None, registry=None, **overrides):
    scenario = get_scenario("paper/fig4-module4", samples=samples)
    if overrides:
        scenario = scenario.with_overrides(
            **{f"service.{key}": value for key, value in overrides.items()}
        )
    plant = SimulatedPlant(build_simulation(scenario))
    kwargs = {} if clock is None else {"clock": clock}
    supervisor = AutonomicSupervisor(
        scenario, plant, registry=registry, **kwargs
    )
    return supervisor, plant


class TestOperatorShed:
    def test_shed_drops_the_exact_fraction_and_audits_per_period(self):
        supervisor, plant = make_supervisor(samples=6)
        supervisor.start()
        supervisor.shed(0.25)
        asyncio.run(supervisor.run())

        # Every admitted bin was scaled by 0.75, so the drop count is a
        # quarter of the original trace mass over the run.
        original = build_simulation(
            get_scenario("paper/fig4-module4", samples=6)
        ).trace.counts
        expected = 0.25 * float(original[: plant.simulation.steps_taken].sum())
        assert plant.shed_requests == pytest.approx(expected)

        sheds = [
            r for r in supervisor.audit.records if r["kind"] == "shed"
        ]
        assert len(sheds) == 6  # one accounting record per period
        assert supervisor.shed_periods == 6
        assert all(not r["auto"] for r in sheds)
        assert sum(r["dropped"] for r in sheds) == pytest.approx(expected)
        for record in sheds:
            assert record["fraction"] == 0.25

    def test_snapshot_and_status_carry_shed_state(self):
        clock = FakeClock(100.0)
        supervisor, plant = make_supervisor(samples=4, clock=clock)
        supervisor.start()
        supervisor.shed(0.5, ttl_seconds=30.0)
        snapshot = supervisor.shed_snapshot()
        assert snapshot["fraction"] == 0.5
        assert snapshot["auto"] is False
        directive = snapshot["directive"]
        assert directive["fraction"] == 0.5
        assert directive["ttl_seconds"] == 30.0
        assert directive["remaining_seconds"] == pytest.approx(30.0)
        asyncio.run(supervisor.run())
        status = supervisor.status()
        assert status["shed"]["fraction"] == 0.5
        assert status["shed"]["dropped_requests"] > 0.0
        json.dumps(status)  # payload must stay JSON-safe

    def test_clear_and_validation(self):
        supervisor, plant = make_supervisor(samples=4)
        supervisor.start()
        supervisor.shed(0.5)
        supervisor.shed(None)
        assert plant.shed_fraction == 0.0
        kinds = [r["kind"] for r in supervisor.audit.records]
        assert "shed-set" in kinds
        assert "shed-cleared" in kinds
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                supervisor.shed(bad)
        with pytest.raises(ConfigurationError):
            supervisor.shed(0.5, ttl_seconds=-1.0)

    def test_directive_expires_on_ttl(self):
        clock = FakeClock(0.0)
        supervisor, plant = make_supervisor(samples=6, clock=clock)
        supervisor.start()
        supervisor.shed(0.5, ttl_seconds=10.0)

        def run_period():
            for _ in range(plant.simulation.substeps):
                asyncio.run(plant.advance())

        run_period()
        assert plant.shed_fraction == 0.5
        clock.value = 11.0  # TTL blown before the next boundary
        run_period()
        assert supervisor.shed_directive is None
        assert plant.shed_fraction == 0.0
        kinds = [r["kind"] for r in supervisor.audit.records]
        assert "shed-expired" in kinds


class TestAutoShed:
    def test_engages_on_hold_and_releases_after_clean_period(self, monkeypatch):
        supervisor, plant = make_supervisor(
            samples=8, deadline_seconds=1e-9, shed_fraction_on_hold=0.3
        )
        simulation = plant.simulation
        fast_decide = L1Controller.decide
        slow = {"on": True}

        def gated_decide(*args, **kwargs):
            decision = fast_decide(*args, **kwargs)
            if slow["on"]:
                time.sleep(0.002)  # blow the 1ns budget
            return decision

        monkeypatch.setattr(L1Controller, "decide", gated_decide)
        supervisor.start()

        def run_period():
            for _ in range(simulation.substeps):
                asyncio.run(plant.advance())

        run_period()  # held -> policy engages at the boundary
        assert supervisor.shed_snapshot()["auto"] is True
        assert plant.shed_fraction == 0.3
        run_period()  # still held, stays engaged, drops accounted
        assert plant.shed_requests > 0.0
        slow["on"] = False
        # With 1ns budgets even a fast decision holds; restore a real
        # budget so the next period comes back clean.
        simulation.set_decision_deadline(60.0)
        run_period()
        assert supervisor.shed_snapshot()["auto"] is False
        assert plant.shed_fraction == 0.0
        kinds = [r["kind"] for r in supervisor.audit.records]
        assert "shed-auto-engaged" in kinds
        assert "shed-auto-released" in kinds
        sheds = [r for r in supervisor.audit.records if r["kind"] == "shed"]
        assert sheds and all(r["auto"] for r in sheds)

    def test_operator_directive_outranks_auto_policy(self):
        supervisor, plant = make_supervisor(
            samples=4, shed_fraction_on_hold=0.3
        )
        supervisor.start()
        supervisor.shed(0.6)
        supervisor._held_in_period = True
        supervisor._update_auto_shed()  # dormant while directive in force
        assert supervisor.shed_snapshot()["auto"] is False
        assert plant.shed_fraction == 0.6


class TestShedMetrics:
    def test_counters_track_drops_and_misses(self):
        registry = MetricsRegistry()
        supervisor, plant = make_supervisor(samples=6, registry=registry)
        supervisor.start()
        supervisor.shed(0.25)
        asyncio.run(supervisor.run())
        shed_total = registry.counter("repro_shed_total").value
        assert shed_total == pytest.approx(plant.shed_requests)
        assert registry.counter("repro_shed_periods_total").value == 6.0
        assert (
            registry.gauge("repro_service_step").value
            == float(plant.steps_taken)
        )


class TestControlSurfaceShed:
    def test_shed_and_metrics_commands(self):
        registry = MetricsRegistry()
        supervisor, _ = make_supervisor(samples=4, registry=registry)
        supervisor.start()
        server = ControlServer(supervisor, port=0)
        response = server.handle_line(
            json.dumps({"cmd": "shed", "fraction": 0.4, "ttl": 60})
        )
        assert response["ok"] is True
        assert response["shed"]["fraction"] == 0.4
        assert response["shed"]["directive"]["source"] == "ctl"
        response = server.handle_line(json.dumps({"cmd": "shed"}))
        assert response["ok"] is False  # fraction is required
        response = server.handle_line(
            json.dumps({"cmd": "shed", "fraction": None})
        )
        assert response["ok"] is True
        assert response["shed"]["fraction"] == 0.0
        response = server.handle_line(json.dumps({"cmd": "metrics"}))
        assert response["ok"] is True
        assert "# TYPE repro_service_total_steps gauge" in response["metrics"]

    def test_metrics_command_without_registry_is_an_error(self):
        supervisor, _ = make_supervisor(samples=4)
        supervisor.start()
        server = ControlServer(supervisor, port=0)
        response = server.handle_line(json.dumps({"cmd": "metrics"}))
        assert response["ok"] is False
