"""Supervisor behaviour: deadline budgets, overrides, status, stop."""

import asyncio
import time
from itertools import islice

import pytest

from repro.common.errors import ConfigurationError, ControlError
from repro.controllers.l1 import L1Bank
from repro.scenario import build_simulation, get_scenario
from repro.service import AutonomicSupervisor, ReplayPlant, SimulatedPlant
from repro.service.feed import SocketFeed
from repro.service.manager import AuditLog, Override, OverrideBook, ShedDirective


class FakeClock:
    def __init__(self, value=0.0):
        self.value = value

    def __call__(self):
        return self.value


def make_supervisor(
    samples=6,
    clock=None,
    scenario_name="paper/fig4-module4",
    deadline_seconds=None,
):
    scenario = get_scenario(scenario_name, samples=samples)
    if deadline_seconds is not None:
        scenario = scenario.with_overrides(
            **{"service.deadline_seconds": deadline_seconds}
        )
    plant = SimulatedPlant(build_simulation(scenario))
    kwargs = {} if clock is None else {"clock": clock}
    return AutonomicSupervisor(scenario, plant, **kwargs), plant


def run_periods(plant, periods):
    simulation = plant.simulation
    for _ in islice(simulation.steps(), periods * simulation.substeps):
        pass


class TestDeadlineBudget:
    def test_slow_controller_degrades_to_hold(self, monkeypatch):
        """A forced overrun holds the previous allocation, never crashes."""
        supervisor, plant = make_supervisor(samples=6, deadline_seconds=1e-9)
        slow_decide = L1Bank.decide

        def injected_slow_decide(*args, **kwargs):
            decisions = slow_decide(*args, **kwargs)
            time.sleep(0.002)  # guarantee the 1ns budget is blown
            return decisions

        monkeypatch.setattr(L1Bank, "decide", injected_slow_decide)
        supervisor.start()
        result = asyncio.run(supervisor.run())
        assert result is not None  # run completed despite every miss
        assert supervisor.state == "finished"
        held = [r for r in supervisor.decision_records if r["held"]]
        assert len(held) == 6  # every period missed its budget
        assert supervisor.deadline_misses == 6
        # Held decisions keep the previous allocation: alpha never moves
        # from the initial all-on configuration.
        first_alpha = supervisor.decision_records[0]["alpha"]
        assert all(r["alpha"] == first_alpha for r in held)
        kinds = [r["kind"] for r in supervisor.audit.records]
        assert kinds.count("deadline-miss") == 6

    def test_generous_deadline_is_bit_identical_to_none(self):
        """A met deadline must not perturb decisions at all."""
        baseline, baseline_plant = make_supervisor(samples=6)
        baseline.start()
        asyncio.run(baseline.run())

        budgeted, budgeted_plant = make_supervisor(
            samples=6, deadline_seconds=60.0
        )
        budgeted.start()
        asyncio.run(budgeted.run())

        assert budgeted.deadline_misses == 0
        assert budgeted.decision_lines() == baseline.decision_lines()


class TestOverrides:
    def test_override_forces_allocation_and_expires(self):
        clock = FakeClock(0.0)
        supervisor, plant = make_supervisor(samples=6, clock=clock)
        supervisor.start()
        supervisor.override(0, 2, ttl_seconds=10.0)
        assert plant.simulation.module_overrides == {0: 2}
        run_periods(plant, 1)
        record = supervisor.allocations[0]
        assert record["forced"]
        assert sum(record["alpha"]) == 2
        # TTL elapses; the next period-end sweep releases the engine pin.
        clock.value += 20.0
        run_periods(plant, 1)
        assert supervisor.overrides.snapshot() == []
        assert plant.simulation.module_overrides == {}
        run_periods(plant, 1)
        assert not supervisor.allocations[0]["forced"]
        kinds = [r["kind"] for r in supervisor.audit.records]
        assert "override-set" in kinds and "override-expired" in kinds

    def test_clear_releases_immediately(self):
        supervisor, plant = make_supervisor(samples=4)
        supervisor.start()
        supervisor.override(0, 2)
        supervisor.override(0, None)
        assert plant.simulation.module_overrides == {}
        kinds = [r["kind"] for r in supervisor.audit.records]
        assert "override-cleared" in kinds

    def test_bad_override_is_rejected_eagerly(self):
        from repro.common import ConfigurationError

        supervisor, plant = make_supervisor(samples=4)
        supervisor.start()
        with pytest.raises(ConfigurationError):
            supervisor.override(3, 2)  # module plant only has module 0
        with pytest.raises(ConfigurationError):
            supervisor.override(0, 99)  # larger than the module
        assert supervisor.overrides.snapshot() == []


class TestStatusAndStop:
    def test_status_before_start_raises(self):
        supervisor, _ = make_supervisor(samples=4)
        with pytest.raises(ControlError):
            supervisor.status()

    def test_status_snapshot_mid_run(self):
        supervisor, plant = make_supervisor(samples=6)
        supervisor.start()
        run_periods(plant, 3)
        status = supervisor.status()
        assert status["schema"] == 1
        assert status["state"] == "running"
        assert status["period"] == 3
        assert status["total_steps"] == plant.total_steps
        assert status["summary"]["mean_response"] > 0
        assert status["forecasts"]["next_period_arrivals"] > 0
        assert status["deadline"] == {"seconds": None, "misses": 0}
        assert len(status["allocations"]) == 1

    def test_next_arrivals_before_any_decision_is_zero(self):
        supervisor, _ = make_supervisor(samples=6)
        supervisor.start()
        assert supervisor.status()["forecasts"]["next_period_arrivals"] == 0.0

    def test_module_run_reports_its_l1_prediction(self):
        # The field is the forecast the latest L1 decision read, not a
        # separate filter's.
        supervisor, plant = make_supervisor(samples=6)
        supervisor.start()
        run_periods(plant, 3)
        forecasts = supervisor.status()["forecasts"]
        assert forecasts["last_l1_predictions"]["0"] > 0
        assert (
            forecasts["next_period_arrivals"]
            == forecasts["last_l1_predictions"]["0"]
        )

    def test_cluster_run_reports_its_l2_prediction(self):
        supervisor, plant = make_supervisor(
            samples=6, scenario_name="cluster-baseline-showdown"
        )
        supervisor.start()
        run_periods(plant, 3)
        forecasts = supervisor.status()["forecasts"]
        assert forecasts["last_l2_prediction"] > 0
        assert forecasts["next_period_arrivals"] == forecasts["last_l2_prediction"]

    def test_stop_interrupts_a_blocked_feed(self):
        """SIGTERM-style stop must win even with no observations coming."""
        scenario = get_scenario("paper/fig4-module4", samples=6)

        async def run():
            feed = await SocketFeed(port=0).start()  # nobody will connect
            plant = ReplayPlant(build_simulation(scenario), feed)
            supervisor = AutonomicSupervisor(scenario, plant)
            supervisor.start()
            asyncio.get_running_loop().call_later(0.05, supervisor.request_stop)
            result = await asyncio.wait_for(supervisor.run(), timeout=10.0)
            await feed.close()
            return supervisor, result

        supervisor, result = asyncio.run(run())
        assert result is None
        assert supervisor.state == "stopped"
        assert supervisor.audit.records[-1]["kind"] == "stopped"

    def test_a_plant_error_leaves_a_failed_record_and_propagates(self):
        """A plant that fails mid-run (a hostile feed line, say) is audited."""

        class FailingPlant(SimulatedPlant):
            async def advance(self):
                if self.simulation.steps_taken == 3:
                    raise ControlError("observation 'arrivals' is bad")
                return await super().advance()

        scenario = get_scenario("module-baseline-threshold-dvfs", samples=4)
        plant = FailingPlant(build_simulation(scenario))
        supervisor = AutonomicSupervisor(scenario, plant)
        with pytest.raises(ControlError, match="'arrivals' is bad"):
            asyncio.run(supervisor.run())
        assert supervisor.state == "failed"
        record = supervisor.audit.records[-1]
        assert (record["kind"], record["step"], record["error"]) == (
            "failed",
            3,
            "observation 'arrivals' is bad",
        )
        assert [r["kind"] for r in supervisor.audit.records] == ["started", "failed"]


class TestManagerPrimitives:
    def test_override_book_sweeps_by_clock(self):
        clock = FakeClock(100.0)
        book = OverrideBook(default_ttl_seconds=50.0, clock=clock)
        book.set(0, 2)  # default ttl
        book.set(1, 3, ttl_seconds=5.0)
        clock.value = 110.0
        expired = book.sweep_expired()
        assert [o.module for o in expired] == [1]
        assert [o.module for o in book.active()] == [0]

    def test_override_book_rejects_non_positive_ttls(self):
        with pytest.raises(ConfigurationError, match="default_ttl_seconds must be positive"):
            OverrideBook(default_ttl_seconds=0.0)
        book = OverrideBook(default_ttl_seconds=60.0)
        with pytest.raises(ConfigurationError, match="override ttl must be positive"):
            book.set(0, 2, ttl_seconds=-5.0)
        assert book.active() == []

    def test_audit_tail_of_nothing_is_empty(self):
        log = AuditLog(clock=FakeClock(0.0))
        log.record("started")
        assert log.tail(0) == []
        assert [r["kind"] for r in log.tail(5)] == ["started"]

    def test_override_expires_when_its_ttl_runs_out(self):
        override = Override(module=0, machines_on=2, ttl_seconds=5.0, set_at=100.0)
        assert override.remaining_seconds(103.0) == 2.0
        assert not override.is_expired(104.5)
        assert override.is_expired(105.0)

    def test_shed_directive_without_ttl_holds_until_cleared(self):
        directive = ShedDirective(fraction=0.3, ttl_seconds=None, set_at=10.0)
        assert directive.remaining_seconds(1e9) is None
        assert not directive.is_expired(1e9)
        assert directive.snapshot(1e9) == {
            "fraction": 0.3,
            "ttl_seconds": None,
            "remaining_seconds": None,
            "source": "operator",
        }

    def test_shed_directive_with_ttl_counts_down(self):
        directive = ShedDirective(
            fraction=0.5, ttl_seconds=10.0, set_at=100.0, source="auto"
        )
        assert not directive.is_expired(109.9)
        assert directive.is_expired(110.0)
        # The status view rounds the remaining time to milliseconds.
        assert directive.snapshot(103.3333333) == {
            "fraction": 0.5,
            "ttl_seconds": 10.0,
            "remaining_seconds": 6.667,
            "source": "auto",
        }

    def test_audit_log_flushes_jsonl(self, tmp_path):
        import json

        path = tmp_path / "audit.jsonl"
        log = AuditLog(path=str(path), clock=FakeClock(1.5))
        log.record("started", scenario="x")
        log.record("stopped")
        lines = path.read_text().splitlines()  # flushed before close()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["seq"] == 0 and first["kind"] == "started"
        assert log.tail(1)[0]["kind"] == "stopped"
        log.close()
