"""EngineOptions: the one options object both engines take.

The per-run knobs (kernel, telemetry, decision deadline, map provider,
warm-up, mean work, recorder window) travel in one
:class:`EngineOptions`. Its checks mirror the spec layer's — same
helpers, same messages, same defaults — so a value the spec rejects is
rejected the same way when an engine is built by hand.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.cluster import paper_cluster_spec, paper_module_spec
from repro.common import ConfigurationError
from repro.controllers import ThresholdDvfsController
from repro.obs import MetricsRegistry, Tracer
from repro.scenario import build_simulation, get_scenario
from repro.scenario.spec import ControlSpec
from repro.sim import ClusterSimulation, EngineOptions, ModuleSimulation
from repro.sim.options import resolve_engine_options
from repro.workload import ArrivalTrace

#: Engine field -> the spec-layer override key that carries it.
SPEC_KEYS = {
    "kernel": "control.kernel",
    "warmup_intervals": "control.warmup_intervals",
    "mean_work": "control.mean_work",
    "recorder_window": "control.window",
}


class TestShape:
    def test_fields_are_the_seven_knobs(self):
        assert [f.name for f in dataclasses.fields(EngineOptions)] == [
            "kernel",
            "metrics",
            "tracer",
            "decision_deadline",
            "warmup_intervals",
            "mean_work",
            "recorder_window",
        ]

    def test_seed_is_not_an_engine_knob(self):
        # The scenario seed seeds the trace; no engine stream reads one.
        with pytest.raises(TypeError, match="'seed'"):
            EngineOptions(seed=0)

    def test_defaults_match_the_spec_layer(self):
        options = EngineOptions()
        control = ControlSpec()
        assert options.kernel == control.kernel == "vector"
        assert options.warmup_intervals == control.warmup_intervals
        assert options.mean_work == control.mean_work
        assert options.recorder_window is control.window is None
        assert options.metrics is options.tracer is None
        assert options.decision_deadline is None


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("kernel", "gpu"),
            ("warmup_intervals", -5),
            ("warmup_intervals", float("nan")),
            ("mean_work", 0.0),
            ("mean_work", -0.01),
            ("mean_work", float("nan")),
            ("recorder_window", 0),
            ("recorder_window", 2.5),
            ("recorder_window", True),
        ],
    )
    def test_message_matches_the_spec_layer(self, field, value):
        spec = get_scenario("cluster-baseline-showdown", samples=3)
        with pytest.raises(ConfigurationError) as spec_error:
            spec.with_overrides(**{SPEC_KEYS[field]: value})
        expected = str(spec_error.value).replace(SPEC_KEYS[field], field, 1)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(expected)}$"):
            EngineOptions(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("warmup_intervals", 0),
            ("recorder_window", 1),
        ],
    )
    def test_boundary_values_accepted(self, field, value):
        assert getattr(EngineOptions(**{field: value}), field) == value

    @pytest.mark.parametrize("seconds", [0, -1.0, float("nan")])
    def test_non_positive_deadline_rejected(self, seconds):
        with pytest.raises(
            ConfigurationError, match="decision deadline must be positive or None"
        ):
            EngineOptions(decision_deadline=seconds)

    def test_deadline_is_stored_as_a_float(self):
        options = EngineOptions(decision_deadline=2)
        assert options.decision_deadline == 2.0
        assert isinstance(options.decision_deadline, float)
        options.set_decision_deadline(None)
        assert options.decision_deadline is None


class TestResolve:
    def test_none_gives_fresh_defaults(self):
        first = resolve_engine_options(None)
        second = resolve_engine_options(None)
        assert first == EngineOptions()
        assert first is not second

    def test_options_pass_through(self):
        options = EngineOptions(warmup_intervals=4, kernel="scalar")
        assert resolve_engine_options(options) is options

    def test_other_types_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="^engine_options must be an EngineOptions, got dict$",
        ):
            resolve_engine_options({"warmup_intervals": 4})

    def test_set_telemetry_attaches_and_detaches(self):
        options = EngineOptions()
        registry, tracer = MetricsRegistry(), Tracer()
        options.set_telemetry(metrics=registry, tracer=tracer)
        assert options.metrics is registry and options.tracer is tracer
        options.set_telemetry()
        assert options.metrics is None and options.tracer is None


def _engine(kind, **kwargs):
    trace = ArrivalTrace(np.full(16, 100.0), 30.0)
    if kind == "module":
        return ModuleSimulation(
            paper_module_spec(),
            trace,
            baseline=ThresholdDvfsController(paper_module_spec()),
            **kwargs,
        )
    return ClusterSimulation(
        paper_cluster_spec(p=2, computers_per_module=2),
        trace,
        baseline="threshold-dvfs",
        **kwargs,
    )


class TestEngines:
    @pytest.mark.parametrize("kind", ["module", "cluster"])
    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("options", EngineOptions()),
            ("execution", "sharded"),
            ("shard_workers", 2),
        ],
    )
    def test_removed_keywords_rejected(self, kind, keyword, value):
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            _engine(kind, **{keyword: value})

    @pytest.mark.parametrize("kind", ["module", "cluster"])
    @pytest.mark.parametrize(
        "name, value",
        [
            ("decision_deadline", -1.0),
            ("metrics", MetricsRegistry()),
            ("tracer", Tracer()),
        ],
    )
    def test_knobs_are_set_through_the_validating_setters(self, kind, name, value):
        # set_decision_deadline and set_telemetry are the one way in; an
        # assignment would slip a negative deadline past its check.
        engine = _engine(kind)
        with pytest.raises(AttributeError):
            setattr(engine, name, value)
        assert getattr(engine, name) is None

    @pytest.mark.parametrize("kind", ["module", "cluster"])
    def test_engine_keeps_the_given_options(self, kind):
        options = EngineOptions(kernel="scalar", warmup_intervals=2)
        assert _engine(kind, engine_options=options).engine_options is options

    @pytest.mark.parametrize(
        "name", ["module-baseline-threshold-dvfs", "cluster-baseline-showdown"]
    )
    def test_build_simulation_carries_the_spec(self, name):
        spec = get_scenario(name, samples=3).with_overrides(
            **{
                "control.kernel": "scalar",
                "control.warmup_intervals": 5,
                "control.mean_work": 0.02,
                "control.window": 4,
            }
        )
        options = build_simulation(spec).engine_options
        assert (
            options.kernel,
            options.warmup_intervals,
            options.mean_work,
            options.recorder_window,
        ) == ("scalar", 5, 0.02, 4)
