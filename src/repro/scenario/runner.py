"""Turn declarative scenarios into simulation runs.

:func:`run_scenario` is the single imperative entry point of the public
API: it accepts a :class:`~repro.scenario.spec.ScenarioSpec` (or a
registered scenario name), materialises the plant, workload, and control
stack, and drives the stepwise engine to completion. Observers ride
along on the engine's hook interface.

Runtime-only objects that cannot live in a declarative spec — trained
behaviour maps, pre-built baseline controller instances, parameter
dataclasses — can be supplied as keyword overrides; a run given the
objects its spec would have built produces bit-for-bit the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.common.errors import ConfigurationError
from repro.controllers.baselines import _BaselineBase, make_baseline
from repro.controllers.params import L0Params, L1Params, L2Params
from repro.maps.cache import env_cache_dir
from repro.maps.provider import MapProvider
from repro.maps.stats import MAP_STATS
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import ClusterSimulation, ModuleSimulation
from repro.sim.options import EngineOptions
from repro.sim.observers import SimulationObserver
from repro.sim.results import ClusterRunResult, ModuleRunResult
from repro.workload.trace import ArrivalTrace
from repro.workload.wc98 import WC98Spec, wc98_trace


def _resolve(scenario: "ScenarioSpec | str") -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario
    if isinstance(scenario, str):
        from repro.scenario.registry import get_scenario

        return get_scenario(scenario)
    raise ConfigurationError(
        "run_scenario takes a ScenarioSpec or a registered scenario name, "
        f"got {type(scenario).__name__}"
    )


def _default_module_l1_params(m: int) -> L1Params:
    """The paper's L1 defaults per module size (§4.3)."""
    if m == 4:
        return L1Params(gamma_step=0.05)
    # The paper coarsens the search for larger modules (gamma quantised
    # at 0.1 for m = 6 and m = 10) to keep the L1 overhead flat; we
    # additionally bound the neighbourhood.
    return L1Params(
        gamma_step=0.1,
        gamma_neighborhood_moves=1,
        max_gamma_candidates=8,
    )


def resolve_control_params(
    scenario: ScenarioSpec,
) -> "tuple[L0Params, L1Params, L2Params]":
    """The concrete controller parameter sets a scenario's run will use.

    Shared by :func:`build_simulation` and :func:`warm_scenario` so the
    maps warmed into a cache carry exactly the content digests the run
    will later look up — parameter-resolution drift between the two
    would read as silent cache misses.
    """
    control = scenario.control
    l0 = L0Params(**control.l0) if control.l0 else L0Params()
    if control.l1:
        l1 = L1Params(**control.l1)
    elif scenario.plant.kind == "module":
        l1 = _default_module_l1_params(scenario.plant.m)
    else:
        l1 = L1Params()
    l2 = L2Params(**control.l2) if control.l2 else L2Params()
    return l0, l1, l2


def build_workload(
    scenario: ScenarioSpec, l0_period: float = 30.0
) -> "tuple[ArrivalTrace, np.ndarray | None]":
    """Materialise the scenario's ``(arrival trace, work series)``.

    The work series (per-T_L0-step mean service demand, seconds) is
    ``None`` for every kind except ``zipfmix``, whose Zipf-store-driven
    request mixes shift the demand with object popularity.
    """
    workload = scenario.workload
    samples = workload.resolved_samples
    if workload.kind == "trace":
        trace = ArrivalTrace.load_file(
            workload.path,
            column=workload.column,
            units=workload.units or "count",
        )
        if samples is not None:
            wanted = samples * 120.0
            if wanted > trace.duration + 1e-9:
                raise ConfigurationError(
                    f"workload.samples asks for {wanted:.0f}s but "
                    f"{workload.path} spans only {trace.duration:.0f}s"
                )
            trace = trace.sliced(
                0, max(1, round(wanted / trace.bin_seconds))
            )
        if workload.scale is not None:
            trace = trace.scaled(workload.scale)
        return trace, None
    if workload.kind == "flashcrowd":
        from repro.workload.flashcrowd import FlashCrowdSpec, flashcrowd_trace

        defaults = FlashCrowdSpec()
        spec = FlashCrowdSpec(
            l1_samples=samples,
            base_rate=workload.rate or defaults.base_rate,
            spike_every=workload.spike_every or defaults.spike_every,
            spike_magnitude=(
                workload.spike_magnitude or defaults.spike_magnitude
            ),
            spike_decay=workload.spike_decay or defaults.spike_decay,
            sub_bin_seconds=l0_period,
        )
        trace = flashcrowd_trace(spec, seed=scenario.seed)
        if workload.scale is not None:
            trace = trace.scaled(workload.scale)
        return trace, None
    if workload.kind == "zipfmix":
        from repro.workload.zipfmix import ZipfMixSpec, zipfmix_workload

        defaults = ZipfMixSpec()
        spec = ZipfMixSpec(
            l1_samples=samples,
            rate=workload.rate or defaults.rate,
            zipf_exponent=(
                defaults.zipf_exponent
                if workload.zipf_exponent is None
                else workload.zipf_exponent
            ),
            rotate_every=workload.rotate_every or defaults.rotate_every,
            sub_bin_seconds=l0_period,
        )
        trace, work_series = zipfmix_workload(spec, seed=scenario.seed)
        if workload.scale is not None:
            trace = trace.scaled(workload.scale)
        return trace, work_series
    return _build_classic_trace(scenario, l0_period), None


def _build_classic_trace(
    scenario: ScenarioSpec, l0_period: float
) -> ArrivalTrace:
    """The original synthetic / wc98 / steady trace construction."""
    workload = scenario.workload
    samples = workload.resolved_samples
    if workload.kind == "synthetic":
        from repro.sim.experiments import module_workload

        if scenario.plant.kind == "module":
            trace = module_workload(
                m=scenario.plant.m, l1_samples=samples, seed=scenario.seed
            )
        else:
            from repro.workload.synthetic import (
                SyntheticWorkloadSpec,
                synthetic_trace,
            )

            trace = synthetic_trace(
                SyntheticWorkloadSpec(l1_samples=samples), seed=scenario.seed
            )
        if workload.scale is not None:
            trace = trace.scaled(workload.scale)
        return trace
    if workload.kind == "wc98":
        trace = wc98_trace(WC98Spec(samples=samples), seed=scenario.seed)
        scale = workload.scale
        if scale is None and scenario.plant.kind == "cluster":
            # "After capacity planning for the workload of interest":
            # peak load sized to ~60 % of the plant's full-speed
            # capacity, so the hierarchy has the headroom the paper
            # provisioned. The peak is always taken from the full day,
            # even for shortened runs — capacity planning looks at the
            # whole workload.
            plant = scenario.plant.build()
            capacity = sum(
                m.max_service_rate(scenario.control.mean_work)
                for m in plant.modules
            )
            reference = wc98_trace(WC98Spec(samples=600), seed=scenario.seed)
            peak_rate = reference.counts.max() / reference.bin_seconds
            scale = 0.6 * capacity / peak_rate
        if scale is not None:
            trace = trace.scaled(scale)
        return trace
    # steady: a constant-rate trace at L0 granularity, `samples`
    # 2-minute control periods long.
    substeps = max(1, round(120.0 / l0_period))
    counts = np.full(samples * substeps, workload.rate * l0_period)
    return ArrivalTrace(counts, l0_period)


def build_simulation(
    scenario: "ScenarioSpec | str",
    l0_params: L0Params | None = None,
    l1_params: L1Params | None = None,
    baseline: "_BaselineBase | None" = None,
    behavior_maps=None,
) -> "ModuleSimulation | ClusterSimulation":
    """Materialise the scenario into a ready-to-run simulation.

    Keyword overrides supply runtime-only objects (trained maps, params
    dataclasses, pre-built baseline controllers); when omitted, the
    declarative ``ControlSpec`` governs.
    """
    scenario = _resolve(scenario)
    control = scenario.control
    resolved_l0, resolved_l1, resolved_l2 = resolve_control_params(scenario)
    if l0_params is None:
        l0_params = resolved_l0
    engine_options = EngineOptions(
        kernel=control.kernel,
        warmup_intervals=control.warmup_intervals,
        mean_work=control.mean_work,
        recorder_window=control.window,
    )
    plant = scenario.plant.build()
    trace, work_series = build_workload(scenario, l0_params.period)
    if scenario.faults and scenario.workload.resolved_samples is None:
        # The spec-level beyond-trace guard needs the trace length, which
        # for a whole-file `trace` workload is only known here: an event
        # past the file's end would silently never fire.
        for event in scenario.faults.events:
            if event[0] >= trace.duration:
                raise ConfigurationError(
                    f"fault event {tuple(event)!r} falls beyond the "
                    f"{trace.duration:.0f}s trace file "
                    f"{scenario.workload.path}; use a longer file or drop "
                    "the event"
                )

    if scenario.plant.kind == "module":
        if l1_params is None:
            l1_params = resolved_l1
        if baseline is None and control.is_baseline:
            baseline = make_baseline(
                control.mode, plant, **control.baseline_params
            )
        return ModuleSimulation(
            plant,
            trace,
            l0_params=l0_params,
            l1_params=l1_params,
            baseline=baseline,
            behavior_maps=behavior_maps,
            work_series=work_series,
            failure_events=scenario.faults.events,
            map_cache=control.map_cache or env_cache_dir(),
            engine_options=engine_options,
        )

    if baseline is not None:
        raise ConfigurationError(
            "pass cluster baselines declaratively (control.mode) or as a "
            "factory via ClusterSimulation(baseline=...); a single "
            "controller instance cannot serve every module"
        )
    if l1_params is None:
        l1_params = resolved_l1
    return ClusterSimulation(
        plant,
        trace,
        l0_params=l0_params,
        l1_params=l1_params,
        l2_params=resolved_l2,
        baseline=control.mode if control.is_baseline else None,
        baseline_params=control.baseline_params or None,
        failure_events=scenario.faults.events,
        work_series=work_series,
        map_cache=control.map_cache or env_cache_dir(),
        engine_options=engine_options,
    )


@dataclass(frozen=True)
class WarmedArtifact:
    """One trained-map artifact a :func:`warm_scenario` call touched."""

    kind: str  # "behavior" | "module"
    digest: str
    source: str  # "trained" | "cache" | "memo"


def warm_scenario(
    scenario: "ScenarioSpec | str",
    map_cache=None,
) -> "list[WarmedArtifact]":
    """Train or load every trained-map artifact a scenario's run needs.

    Resolves the plant and controller parameters exactly as
    :func:`build_simulation` would (via :func:`resolve_control_params`),
    then pulls each distinct behaviour/cost map through the artifact
    layer — training on a miss, loading on a hit — so a subsequent run
    against the same cache performs zero trainings. ``map_cache``
    overrides the scenario's ``control.map_cache`` (``None`` falls back
    to it). Each map trains its grid in lockstep in this process.
    Baseline scenarios train no maps and return an empty list.
    """
    scenario = _resolve(scenario)
    if scenario.control.is_baseline:
        return []
    cache = map_cache if map_cache is not None else scenario.control.map_cache
    if cache is None:
        cache = env_cache_dir()
    l0_params, l1_params, _ = resolve_control_params(scenario)
    plant = scenario.plant.build()
    provider = MapProvider(cache=cache)
    if scenario.plant.kind == "module":
        module_specs = [plant]
        warm_module_maps = False  # module runs never query L2 cost maps
    else:
        module_specs = list(plant.modules)
        warm_module_maps = True
    for module_spec in module_specs:
        maps = provider.behavior_maps(module_spec, l0_params, l1_params)
        if warm_module_maps:
            provider.module_map(module_spec, maps, l1_params, l0_params)
    # The provider is the single authority on artifact identity: report
    # exactly the (kind, digest) pairs it served, in first-served order.
    return [
        WarmedArtifact(
            kind=kind,
            digest=digest,
            source=MAP_STATS.sources.get(digest, "memo"),
        )
        for kind, digest in provider.served
    ]


def run_scenario(
    scenario: "ScenarioSpec | str",
    observers: "Iterable[SimulationObserver]" = (),
    l0_params: L0Params | None = None,
    l1_params: L1Params | None = None,
    baseline: "_BaselineBase | None" = None,
    behavior_maps=None,
    telemetry=None,
) -> "ModuleRunResult | ClusterRunResult":
    """Run a scenario end-to-end and return its structured result.

    ``scenario`` is a :class:`ScenarioSpec` (usually from
    :class:`~repro.scenario.builder.Scenario` or a stored dict/JSON) or
    the name of a registered scenario. ``observers`` receive the
    engine's stepwise events (:mod:`repro.sim.observers`). ``telemetry``
    (a :class:`~repro.obs.instrument.Telemetry`) attaches its registry
    and tracer to the engine's telemetry seam and rides the observer
    list; the run's numerical results are identical with or without it.
    """
    simulation = build_simulation(
        scenario,
        l0_params=l0_params,
        l1_params=l1_params,
        baseline=baseline,
        behavior_maps=behavior_maps,
    )
    if telemetry is not None:
        telemetry.attach(simulation)
        observers = (*observers, telemetry.observer())
    return simulation.run(observers=observers)
