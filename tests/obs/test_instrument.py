"""Telemetry through the engine seams: zero-cost, byte-identity, spans."""

from helpers import MemorySink

from repro.common.schema import dump_json, run_payload
from repro.maps.stats import MAP_STATS, reset_map_stats
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    TelemetryObserver,
    Tracer,
    global_registry,
)
from repro.scenario import build_simulation, get_scenario
from repro.scenario.runner import run_scenario


def payload_of(result, name="x"):
    return dump_json(run_payload(name, result.summary()))


class TestZeroCost:
    def test_engine_defaults_detached(self):
        simulation = build_simulation(
            get_scenario("paper/fig4-module4", samples=6)
        )
        assert simulation.metrics is None
        assert simulation.tracer is None

    def test_sinkless_tracer_is_disabled_and_emit_returns_none(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.emit("l1-lookahead", period=0, wall_us=1.0) is None

    def test_sinkless_tracer_not_attached(self):
        simulation = build_simulation(
            get_scenario("paper/fig4-module4", samples=6)
        )
        telemetry = Telemetry()
        telemetry.attach(simulation)
        assert simulation.metrics is telemetry.registry
        assert simulation.tracer is None  # no sinks -> fast path


class TestByteIdentity:
    def test_module_run_identical_with_telemetry(self):
        scenario = get_scenario("paper/fig4-module4", samples=24)
        plain = run_scenario(scenario)
        telemetry = Telemetry(tracer=Tracer(sinks=(MemorySink(),)))
        instrumented = run_scenario(scenario, telemetry=telemetry)
        assert payload_of(plain) == payload_of(instrumented)

    def test_cluster_run_identical_with_telemetry(self):
        scenario = get_scenario("cluster-baseline-showdown", samples=8)
        plain = run_scenario(scenario)
        telemetry = Telemetry(tracer=Tracer(sinks=(MemorySink(),)))
        instrumented = run_scenario(scenario, telemetry=telemetry)
        assert payload_of(plain) == payload_of(instrumented)


class TestModuleSpans:
    def test_span_kinds_counts_and_order(self):
        scenario = get_scenario("paper/fig4-module4", samples=6)
        sink = MemorySink()
        telemetry = Telemetry(tracer=Tracer(sinks=(sink,)))
        run_scenario(scenario, telemetry=telemetry)
        kinds = [span["kind"] for span in sink.spans]
        assert kinds.count("l1-lookahead") == 6
        assert kinds.count("l0-bank") == 6
        # Per period: the L1 lookahead precedes the period's L0 bank.
        for period in range(6):
            spans = [s for s in sink.spans if s["period"] == period]
            assert [s["kind"] for s in spans] == ["l1-lookahead", "l0-bank"]
        seqs = [span["seq"] for span in sink.spans]
        assert seqs == sorted(seqs)
        first = sink.spans[0]
        assert first["module"] == 0
        assert first["wall_us"] >= 0.0
        assert first["machines_on"] >= 1
        assert first["lookahead"] >= 1
        assert first["held"] is False

    def test_l0_bank_spans_carry_states(self):
        scenario = get_scenario("paper/fig4-module4", samples=6)
        sink = MemorySink()
        telemetry = Telemetry(tracer=Tracer(sinks=(sink,)))
        run_scenario(scenario, telemetry=telemetry)
        banks = [s for s in sink.spans if s["kind"] == "l0-bank"]
        assert all(span["states"] > 0 for span in banks)
        assert all(span["wall_us"] > 0.0 for span in banks)


class TestClusterSpans:
    def test_hierarchy_emits_l2_l1_l0(self):
        scenario = get_scenario("paper/fig6-cluster16", samples=4)
        sink = MemorySink()
        telemetry = Telemetry(tracer=Tracer(sinks=(sink,)))
        run_scenario(scenario, telemetry=telemetry)
        kinds = [span["kind"] for span in sink.spans]
        modules = scenario.plant.p
        assert kinds.count("l2-solve") == 4
        assert kinds.count("l1-lookahead") == 4 * modules
        assert kinds.count("l0-bank") == 4 * modules
        # Boundary order: the L2 solve precedes every module's L1.
        period0 = [
            s for s in sink.spans
            if s["period"] == 0 and s["kind"] != "l0-bank"
        ]
        assert period0[0]["kind"] == "l2-solve"
        assert [s["kind"] for s in period0[1:]] == ["l1-lookahead"] * modules
        l2 = period0[0]
        assert len(l2["gamma"]) == modules
        assert l2["held"] is False


class TestObserverMetrics:
    def test_counters_match_run_shape(self):
        scenario = get_scenario("paper/fig4-module4", samples=12)
        registry = MetricsRegistry()
        simulation = build_simulation(scenario)
        simulation.run(observers=(TelemetryObserver(registry),))
        substeps = simulation.substeps
        assert registry.counter("repro_steps_total").value == 12 * substeps
        assert registry.counter("repro_periods_total").value == 12
        assert (
            registry.counter("repro_decisions_total", level="l1").value == 12
        )
        assert registry.counter("repro_decision_holds_total", level="l1").value == 0
        histogram = registry.histogram("repro_response_seconds")
        assert histogram.count > 0
        assert histogram.sketches[0.9].value > 0.0
        assert registry.gauge("repro_machines_on", module="0").value >= 1.0

    def test_decision_latency_histogram_via_seam(self):
        scenario = get_scenario("paper/fig4-module4", samples=6)
        registry = MetricsRegistry()
        telemetry = Telemetry(registry=registry)
        run_scenario(scenario, telemetry=telemetry)
        histogram = registry.histogram("repro_decision_seconds", level="l1")
        assert histogram.count == 6
        assert histogram.sum > 0.0


class TestMapStatsFold:
    def test_map_counters_surface_in_global_registry(self):
        reset_map_stats()
        MAP_STATS.behavior_trainings += 1
        MAP_STATS.cache_hits += 2
        MAP_STATS.memo_hits += 3
        registry = global_registry()
        assert (
            registry.counter(
                "repro_map_trainings_total", kind="behavior"
            ).value == 1.0
        )
        assert (
            registry.counter(
                "repro_map_cache_lookups_total", result="hit"
            ).value == 2.0
        )
        assert registry.counter("repro_map_memo_hits_total").value == 3.0
        assert MAP_STATS.trainings == 1
        assert MAP_STATS.to_dict()["cache_hits"] == 2
        reset_map_stats()
        assert (
            registry.counter(
                "repro_map_cache_lookups_total", result="hit"
            ).value == 0.0
        )
