"""Engine seams behind the live service: deadlines, overrides, live summary."""

import time

import pytest

from repro.common import ConfigurationError
from repro.scenario import build_simulation, get_scenario
from repro.sim.observers import DecisionRecorder


@pytest.fixture(scope="module", autouse=True)
def shared_map_cache(tmp_path_factory):
    """Train each scenario's abstraction maps once for this module."""
    import os

    from repro.maps.cache import CACHE_ENV_VAR

    cache = str(tmp_path_factory.mktemp("maps"))
    old = os.environ.get(CACHE_ENV_VAR)
    os.environ[CACHE_ENV_VAR] = cache
    yield
    if old is None:
        del os.environ[CACHE_ENV_VAR]
    else:
        os.environ[CACHE_ENV_VAR] = old


def module_sim(samples=4):
    return build_simulation(get_scenario("paper/fig4-module4", samples=samples))


def cluster_sim(samples=4):
    return build_simulation(get_scenario("paper/fig6-cluster16", samples=samples))


def run_all(simulation, recorder):
    simulation.reset(observers=(recorder,))
    for _ in simulation.steps():
        pass
    return simulation.finish()


class TestModuleOverride:
    def test_forced_allocation_pins_machines(self):
        simulation = module_sim()
        simulation.set_module_override(0, 2)
        recorder = DecisionRecorder()
        run_all(simulation, recorder)
        l1 = [r for r in recorder.records if r["type"] == "l1"]
        assert l1 and all(r["forced"] for r in l1)
        assert all(sum(r["alpha"]) == 2 for r in l1)
        assert all(sum(r["gamma"]) == pytest.approx(1.0) for r in l1)

    def test_release_restores_autonomy(self):
        simulation = module_sim()
        simulation.set_module_override(0, 1)
        simulation.set_module_override(0, None)
        recorder = DecisionRecorder()
        run_all(simulation, recorder)
        assert not any(r["forced"] for r in recorder.records)

    def test_validation(self):
        simulation = module_sim()
        with pytest.raises(ConfigurationError, match="single module"):
            simulation.set_module_override(1, 2)
        with pytest.raises(ConfigurationError, match="positive int"):
            simulation.set_module_override(0, 0)
        with pytest.raises(ConfigurationError, match="only 4"):
            simulation.set_module_override(0, 5)


class TestClusterOverride:
    def test_forces_one_module_and_leaves_the_rest(self):
        simulation = cluster_sim()
        simulation.set_module_override(1, 2)
        recorder = DecisionRecorder()
        run_all(simulation, recorder)
        mine = [
            r
            for r in recorder.records
            if r["type"] == "l1" and r["module"] == 1
        ]
        others = [
            r
            for r in recorder.records
            if r["type"] == "l1" and r["module"] != 1
        ]
        assert mine and all(r["forced"] for r in mine)
        assert all(sum(r["alpha"]) == 2 for r in mine)
        assert others and not any(r["forced"] for r in others)

    def test_validation(self):
        simulation = cluster_sim()
        with pytest.raises(ConfigurationError, match="module index"):
            simulation.set_module_override(9, 2)


class TestDecisionDeadline:
    def test_validation(self):
        simulation = module_sim()
        with pytest.raises(ConfigurationError, match="positive or None"):
            simulation.set_decision_deadline(0.0)
        simulation.set_decision_deadline(None)  # default stays allowed
        assert simulation.decision_deadline is None

    def test_module_overrun_holds_previous_allocation(self):
        simulation = module_sim()
        slow_decide = simulation.l1.decide

        def injected(*args, **kwargs):
            decision = slow_decide(*args, **kwargs)
            time.sleep(0.002)
            return decision

        simulation.l1.decide = injected
        simulation.set_decision_deadline(1e-9)
        recorder = DecisionRecorder()
        run_all(simulation, recorder)  # completes despite every miss
        l1 = [r for r in recorder.records if r["type"] == "l1"]
        assert l1 and all(r["held"] for r in l1)
        first = l1[0]["alpha"]
        assert all(r["alpha"] == first for r in l1)

    def test_cluster_l2_overrun_holds_every_module(self):
        simulation = cluster_sim()
        slow_act = simulation.l2.act

        def injected(*args, **kwargs):
            decision = slow_act(*args, **kwargs)
            time.sleep(0.002)
            return decision

        simulation.l2.act = injected
        simulation.set_decision_deadline(1e-9)
        recorder = DecisionRecorder()
        run_all(simulation, recorder)
        l2 = [r for r in recorder.records if r["type"] == "l2"]
        l1 = [r for r in recorder.records if r["type"] == "l1"]
        assert l2 and all(r["held"] for r in l2)
        assert l1 and all(r["held"] for r in l1)

    def test_generous_deadline_leaves_decisions_untouched(self):
        plain, budgeted = DecisionRecorder(), DecisionRecorder()
        run_all(module_sim(), plain)
        simulation = module_sim()
        simulation.set_decision_deadline(60.0)
        run_all(simulation, budgeted)
        assert budgeted.lines() == plain.lines()


class TestLiveSummary:
    def test_requires_an_active_run(self):
        from repro.common.errors import ControlError

        with pytest.raises(ControlError, match="no active run"):
            module_sim().live_summary()

    def test_matches_finish_at_end_of_run(self):
        simulation = module_sim()
        result = run_all(simulation, DecisionRecorder())
        live = simulation.live_summary()
        assert live.deterministic_dict() == result.summary().deterministic_dict()

    def test_cluster_matches_finish_at_end_of_run(self):
        simulation = cluster_sim()
        simulation.reset()
        for _ in simulation.steps():
            pass
        live = simulation.live_summary()
        result = simulation.finish()
        assert live.deterministic_dict() == result.summary().deterministic_dict()

    def test_mid_run_summary_is_usable(self):
        simulation = module_sim(samples=6)
        simulation.reset()
        for _ in simulation.advance_period():
            pass
        for _ in simulation.advance_period():
            pass
        summary = simulation.live_summary()
        assert summary.mean_response > 0
        assert simulation.steps_taken == 2 * simulation.substeps
