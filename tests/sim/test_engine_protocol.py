"""The stepwise protocol both engines share, and the module engine on top.

:class:`ModuleSimulation` and :class:`ClusterSimulation` inherit their
protocol plumbing (state queries, ``advance_period``/``finish`` guards,
override validation, telemetry attachment) from one base, so each check
here runs on both. The module engine itself steps one
:class:`~repro.sim.shard.ModuleShardRunner`; the remaining tests pin
what it promises its observers and callers.
"""

import os

import numpy as np
import pytest

from repro.common import ConfigurationError, ControlError
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.scenario import build_simulation, get_scenario
from repro.sim.observers import ModuleRecorder


@pytest.fixture(scope="module", autouse=True)
def shared_map_cache(tmp_path_factory):
    """Train each scenario's abstraction maps once for this module."""
    from repro.maps.cache import CACHE_ENV_VAR

    cache = str(tmp_path_factory.mktemp("maps"))
    old = os.environ.get(CACHE_ENV_VAR)
    os.environ[CACHE_ENV_VAR] = cache
    yield
    if old is None:
        del os.environ[CACHE_ENV_VAR]
    else:
        os.environ[CACHE_ENV_VAR] = old


ENGINES = {
    "module": "module-baseline-threshold-dvfs",
    "cluster": "cluster-baseline-showdown",
}


@pytest.fixture(params=sorted(ENGINES))
def simulation(request):
    simulation = build_simulation(get_scenario(ENGINES[request.param], samples=3))
    yield simulation
    close = getattr(simulation, "close", None)
    if close is not None:
        close()


def _module_count(simulation):
    return getattr(simulation.spec, "module_count", 1)


def _module0_size(simulation):
    modules = getattr(simulation.spec, "modules", None)
    return simulation.spec.size if modules is None else modules[0].size


def _drain(simulation):
    for _ in simulation.steps():
        pass


class TestSharedProtocol:
    def test_fresh_engine_reports_its_shape(self, simulation):
        assert simulation.kernel == "scalar"
        assert simulation.steps_taken == 0
        assert not simulation.finished
        assert simulation.total_steps == len(simulation.trace)
        assert simulation.periods == int(
            np.ceil(simulation.total_steps / simulation.substeps)
        )

    def test_advance_period_takes_exactly_one_period(self, simulation):
        simulation.reset()
        first = list(simulation.advance_period())
        assert len(first) == simulation.substeps
        assert simulation.steps_taken == simulation.substeps
        second = list(simulation.advance_period())
        assert len(second) == simulation.substeps
        assert simulation.steps_taken == 2 * simulation.substeps

    def test_step_after_the_last_raises(self, simulation):
        simulation.reset()
        _drain(simulation)
        assert simulation.finished
        assert simulation.steps_taken == simulation.total_steps
        with pytest.raises(ControlError, match="already finished"):
            simulation.step()

    def test_finish_before_the_last_step_raises(self, simulation):
        simulation.reset()
        simulation.step()
        with pytest.raises(
            ControlError, match=f"run not finished: 1/{simulation.total_steps}"
        ):
            simulation.finish()

    def test_reset_starts_a_fresh_run(self, simulation):
        simulation.run()
        simulation.reset()
        assert simulation.steps_taken == 0
        assert not simulation.finished
        _drain(simulation)
        assert simulation.steps_taken == simulation.total_steps
        result = simulation.finish()
        assert result is simulation.finish()  # finish is idempotent

    def test_override_count_validation(self, simulation):
        for bad in (0, -1, True, 2.0, "2"):
            with pytest.raises(ConfigurationError, match="positive int"):
                simulation.set_module_override(0, bad)
        size = _module0_size(simulation)
        with pytest.raises(ConfigurationError, match=f"has only {size}"):
            simulation.set_module_override(0, size + 1)
        assert simulation.module_overrides == {}
        simulation.set_module_override(0, size)
        assert simulation.module_overrides == {0: size}

    def test_set_telemetry_attaches_and_detaches(self, simulation):
        registry = MetricsRegistry()
        sink = MemorySink()
        tracer = Tracer(sinks=(sink,))
        simulation.set_telemetry(metrics=registry, tracer=tracer)
        assert simulation.metrics is registry
        assert simulation.tracer is tracer
        simulation.run()
        decisions = simulation.periods * _module_count(simulation)
        lookaheads = [s for s in sink.spans if s["kind"] == "l1-lookahead"]
        assert len(lookaheads) == decisions
        # Baseline modules run no lookahead and have no L0 bank.
        assert all(span["lookahead"] == 0 for span in lookaheads)
        assert not any(s["kind"] == "l0-bank" for s in sink.spans)
        histogram = registry.histogram("repro_decision_seconds", level="l1")
        assert histogram.count == decisions
        simulation.set_telemetry()
        assert simulation.metrics is None and simulation.tracer is None
        spans_before = len(sink.spans)
        simulation.run()
        assert len(sink.spans) == spans_before
        assert histogram.count == decisions


class _StepCounter(ModuleRecorder):
    """A recorder subclass that counts its ``on_step`` calls."""

    def __init__(self, simulation) -> None:
        super().__init__(
            simulation.total_steps, simulation.spec.size, simulation.periods
        )
        self.calls = 0

    def on_step(self, event) -> None:
        self.calls += 1
        super().on_step(event)


def _hierarchy(samples=4):
    return build_simulation(get_scenario("paper/fig4-module4", samples=samples))


class TestModuleEngine:
    def test_recorder_subclass_sees_every_step(self):
        simulation = _hierarchy()
        counter = _StepCounter(simulation)
        result = simulation.run(observers=(counter,))
        assert counter.calls == simulation.total_steps
        assert np.array_equal(counter.power, result.power)
        assert np.array_equal(counter.responses, result.responses, equal_nan=True)

    def test_hierarchy_spans_carry_the_lookahead(self):
        simulation = _hierarchy()
        sink = MemorySink()
        simulation.set_telemetry(tracer=Tracer(sinks=(sink,)))
        simulation.run()
        lookaheads = [s for s in sink.spans if s["kind"] == "l1-lookahead"]
        assert [s["period"] for s in lookaheads] == list(range(simulation.periods))
        assert all(
            s["lookahead"] == simulation.l1_params.horizon for s in lookaheads
        )

    def test_baseline_live_summary_matches_finish(self):
        simulation = build_simulation(
            get_scenario("module-baseline-threshold-dvfs", samples=4)
        )
        simulation.reset()
        _drain(simulation)
        live = simulation.live_summary()
        result = simulation.finish()
        assert live.deterministic_dict() == result.summary().deterministic_dict()
