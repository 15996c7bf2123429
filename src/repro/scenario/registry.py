"""Named, discoverable scenarios.

The registry maps stable names to :class:`ScenarioSpec` factories. The
``paper/`` namespace reproduces the paper's evaluation; the rest are
scenarios the old run-to-completion API could not express (cluster-level
baselines, failure drills). The CLI (``repro run <name>``,
``repro list-scenarios``) and the examples consume these entries, and
user code can add its own::

    from repro.scenario import register_scenario, Scenario

    @register_scenario("my/experiment")
    def _my_experiment():
        return (
            Scenario.module(m=6)
            .workload("synthetic", samples=480)
            .describe("my sweep point")
            .build()
        )
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.scenario.builder import Scenario
from repro.scenario.spec import ScenarioSpec

_REGISTRY: "dict[str, Callable[[], ScenarioSpec]]" = {}


@dataclass(frozen=True)
class RegisteredScenario:
    """One listing row: the name plus the factory's description."""

    name: str
    description: str


def register_scenario(
    name: str, replace_existing: bool = False
) -> "Callable[[Callable[[], ScenarioSpec]], Callable[[], ScenarioSpec]]":
    """Decorator: register a zero-argument :class:`ScenarioSpec` factory."""
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"scenario name must be a non-empty string, got {name!r}")

    def decorator(factory: "Callable[[], ScenarioSpec]"):
        if name in _REGISTRY and not replace_existing:
            raise ConfigurationError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def get_scenario(
    name: str, samples: int | None = None, seed: int | None = None
) -> ScenarioSpec:
    """Build a registered scenario, optionally shortening/reseeding it."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        )
    spec = _REGISTRY[name]()
    if not spec.name:
        spec = replace(spec, name=name)
    return spec.with_overrides(samples=samples, seed=seed)


def list_scenarios() -> "tuple[RegisteredScenario, ...]":
    """All registered scenarios, sorted by name."""
    rows = []
    for name in sorted(_REGISTRY):
        spec = _REGISTRY[name]()
        rows.append(RegisteredScenario(name=name, description=spec.description))
    return tuple(rows)


def scenario_names() -> "tuple[str, ...]":
    """The sorted registered names (cheap; does not build the specs)."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Built-in entries
# ----------------------------------------------------------------------


@register_scenario("paper/fig4-module4")
def _fig4_module4() -> ScenarioSpec:
    return (
        Scenario.module(m=4)
        .workload("synthetic")
        .describe(
            "§4.3 module of four under the synthetic day-scale workload "
            "(Figs. 4 and 5): L1 + L0 hierarchy, r* = 4 s"
        )
        .build()
    )


@register_scenario("paper/fig6-cluster16")
def _fig6_cluster16() -> ScenarioSpec:
    return (
        Scenario.cluster(p=4)
        .workload("wc98")
        .describe(
            "§5.2 sixteen computers in four modules under the WC'98 day "
            "(Figs. 6 and 7): full L2/L1/L0 hierarchy"
        )
        .build()
    )


@register_scenario("paper/fig6-cluster20")
def _fig6_cluster20() -> ScenarioSpec:
    return (
        Scenario.cluster(p=5)
        .workload("wc98")
        .describe("§5.2 twenty-computer five-module variant")
        .build()
    )


@register_scenario("paper/overhead-m6")
def _overhead_m6() -> ScenarioSpec:
    return (
        Scenario.module(m=6)
        .workload("synthetic", samples=400)
        .describe("§4.3 control-overhead study: module of six")
        .build()
    )


@register_scenario("paper/overhead-m10")
def _overhead_m10() -> ScenarioSpec:
    return (
        Scenario.module(m=10)
        .workload("synthetic", samples=400)
        .describe("§4.3 control-overhead study: module of ten")
        .build()
    )


@register_scenario("module-baseline-threshold-dvfs")
def _module_baseline_dvfs() -> ScenarioSpec:
    return (
        Scenario.module(m=4)
        .workload("synthetic")
        .baseline("threshold-dvfs")
        .describe(
            "module of four pinned to the Elnozahy-style threshold + DVFS "
            "heuristic — the energy side of the paper's comparison"
        )
        .build()
    )


@register_scenario("cluster-baseline-showdown")
def _cluster_baseline_showdown() -> ScenarioSpec:
    return (
        Scenario.cluster(p=4)
        .workload("wc98")
        .baseline("threshold-dvfs")
        .describe(
            "the §5.2 cluster with every module pinned to the threshold + "
            "DVFS heuristic (static capacity-proportional split) — run "
            "against paper/fig6-cluster16 for the cluster-level showdown "
            "the old API could not express"
        )
        .build()
    )


@register_scenario("cluster-always-on-max")
def _cluster_always_on() -> ScenarioSpec:
    return (
        Scenario.cluster(p=4)
        .workload("wc98")
        .baseline("always-on-max")
        .describe(
            "the §5.2 cluster with everything on at full speed — the "
            "QoS-safe / energy-worst reference point"
        )
        .build()
    )


def packaged_trace_path() -> str:
    """Absolute path of the spiky-day trace file shipped with the package."""
    import repro.workload as _workload

    return str(Path(_workload.__file__).parent / "data" / "spiky_day.csv")


@register_scenario("workloads/trace-replay")
def _trace_replay() -> ScenarioSpec:
    return (
        Scenario.module(m=4)
        .workload(
            "trace",
            path=packaged_trace_path(),
            column=1,
            units="rate",
        )
        .control(warmup_intervals=24)
        .describe(
            "replay the packaged spiky-day arrival-rate file "
            "(time_seconds,rate_rps at 2-minute bins) on the module of "
            "four — the template for driving the hierarchy from logged "
            "production traces"
        )
        .build()
    )


@register_scenario("workloads/flashcrowd-module")
def _flashcrowd_module() -> ScenarioSpec:
    return (
        Scenario.module(m=4)
        .workload(
            "flashcrowd",
            rate=40.0,
            spike_every=120,
            spike_magnitude=3.0,
            spike_decay=15.0,
        )
        .describe(
            "flash crowds on the module of four: 40 req/s base spiking "
            "to 160 req/s (~80% of full-speed capacity) every 4 h, "
            "decaying over ~30 min — regime shifts the L1 predictor "
            "cannot see coming"
        )
        .build()
    )


@register_scenario("workloads/flashcrowd-cluster16")
def _flashcrowd_cluster16() -> ScenarioSpec:
    return (
        Scenario.cluster(p=4)
        .workload(
            "flashcrowd",
            rate=150.0,
            spike_every=120,
            spike_magnitude=2.5,
            spike_decay=15.0,
        )
        .describe(
            "flash crowds on the §5.2 sixteen-computer cluster: 150 "
            "req/s base spiking to ~525 req/s (about 2/3 of full-speed "
            "capacity) — the L2/L1/L0 stack absorbing sudden crowds"
        )
        .build()
    )


@register_scenario("workloads/zipfmix-module")
def _zipfmix_module() -> ScenarioSpec:
    return (
        Scenario.module(m=4)
        .workload("zipfmix", rate=80.0, rotate_every=100)
        .describe(
            "Zipf-mix on the module of four: steady 80 req/s Poisson "
            "arrivals while the store's hot set rotates every ~3.3 h, "
            "stepping the mean service demand the work filters track"
        )
        .build()
    )


@register_scenario("workloads/zipfmix-cluster16")
def _zipfmix_cluster16() -> ScenarioSpec:
    return (
        Scenario.cluster(p=4)
        .workload("zipfmix", rate=350.0, rotate_every=60)
        .describe(
            "Zipf-mix on the §5.2 sixteen-computer cluster: 350 req/s "
            "Poisson arrivals with the hot set rotating every 2 h — "
            "per-request service demand drifts under the full hierarchy"
        )
        .build()
    )


@register_scenario("module-failover")
def _module_failover() -> ScenarioSpec:
    return (
        Scenario.module(m=4)
        .workload("steady", samples=90, rate=100.0)
        .control(warmup_intervals=10)
        .with_failures((30 * 120.0, 3, "fail"), (60 * 120.0, 3, "repair"))
        .describe(
            "autonomic recovery drill: steady 100 req/s, the fastest "
            "machine fails at t = 1 h and is repaired at t = 2 h; the L1 "
            "re-provisions around the loss without operator input"
        )
        .build()
    )
