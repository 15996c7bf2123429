"""Every ``reset()`` starts a fresh run; the run owns one filter per signal.

Both engines build their controllers and filters per run, so two
``run()``\\ s of one simulation agree on every result array and every
controller count, and a baseline handed to :class:`ModuleSimulation` is
a template the engine never mutates. The run builds only the filters a
decision reads and the controllers hold none: an L1 under an L2
forecasts from its share of the global filter, so no module filter is
built, and every level reads one processing-time EWMA per timescale.
"""

import dataclasses
import os
from collections import Counter

import numpy as np
import pytest

from repro.cluster import paper_module_spec
from repro.controllers import ThresholdDvfsController
from repro.controllers.params import L0Params, L1Params
from repro.forecast.ewma import EwmaFilter
from repro.forecast.structural import WorkloadPredictor
from repro.maps import provider as map_provider
from repro.maps.stats import MAP_STATS
from repro.scenario import build_simulation, get_scenario
from repro.sim import ClusterRunResult, ClusterSimulation, kernels


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


SAMPLES = 24

#: ``(scenario, control.warmup_intervals)``. The module runs keep their
#: default warm-up; the cluster runs skip it, so a filter carried over
#: from the first run would start the second one warm.
RERUNS = [
    ("workloads/zipfmix-module", None),
    ("paper/fig4-module4", None),
    ("module-baseline-threshold-dvfs", None),
    ("paper/fig6-cluster16", 0),
    ("cluster-baseline-showdown", 0),
    ("workloads/zipfmix-cluster16", 0),
]

MODULE_ARRAYS = (
    "arrivals",
    "frequencies",
    "responses",
    "queues",
    "power",
    "l1_arrivals",
    "l1_predictions",
    "computers_on",
)
CLUSTER_ARRAYS = (
    "global_arrivals",
    "global_predictions",
    "gamma_history",
    "total_computers_on",
    "per_module_on",
)


def _counts(stats):
    return stats.invocations, stats.states_explored


def _fingerprint(result) -> dict:
    """One run's summary, result arrays and controller counts.

    Taken right after the run: a controller shared with a later run
    would otherwise report that run's counts here too.
    """
    fingerprint = {"summary": result.summary().deterministic_dict()}
    modules = [result]
    if isinstance(result, ClusterRunResult):
        fingerprint.update({name: getattr(result, name) for name in CLUSTER_ARRAYS})
        fingerprint["l2"] = _counts(result.l2_stats)
        modules = result.module_results
    for i, module in enumerate(modules):
        for name in MODULE_ARRAYS:
            fingerprint[f"{i}.{name}"] = getattr(module, name)
        fingerprint[f"{i}.l0"] = _counts(module.l0_stats)
        fingerprint[f"{i}.l1"] = _counts(module.l1_stats)
    return fingerprint


def _same(left: dict, right: dict) -> bool:
    """Two fingerprints agree on every value and every array."""
    return left.keys() == right.keys() and all(
        np.array_equal(value, right[key], equal_nan=True)
        if isinstance(value, np.ndarray)
        else value == right[key]
        for key, value in left.items()
    )


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
@pytest.mark.parametrize("name,warmup", RERUNS, ids=[name for name, _ in RERUNS])
def test_second_run_repeats_the_first(name, warmup, kernel):
    overrides = {"control.kernel": kernel}
    if warmup is not None:
        overrides["control.warmup_intervals"] = warmup
    simulation = build_simulation(
        get_scenario(name, samples=SAMPLES).with_overrides(**overrides)
    )
    first = _fingerprint(simulation.run())
    second = _fingerprint(simulation.run())
    assert first.keys() == second.keys()
    for key, value in first.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, second[key], equal_nan=True), key
        else:
            assert value == second[key], key


@pytest.fixture
def feeds(monkeypatch) -> Counter:
    """Observations fed to each filter from now on, keyed by the filter.

    The vector kernel feeds primed predictors through
    ``batched_predictor_observe``, which skips ``observe``, so both
    paths are counted.
    """
    fed = Counter()

    def counting(cls):
        observe = cls.observe

        def counting_observe(self, value):
            fed[self] += 1
            return observe(self, value)

        monkeypatch.setattr(cls, "observe", counting_observe)

    counting(WorkloadPredictor)
    counting(EwmaFilter)
    batched = kernels.batched_predictor_observe

    def counting_batched(predictors, values):
        if all(p._primed for p in predictors):  # else it calls observe
            fed.update(predictors)
        batched(predictors, values)

    monkeypatch.setattr(kernels, "batched_predictor_observe", counting_batched)
    return fed


def _fed(simulation, feeds) -> dict:
    """Observation counts of the run's own filters after its last run."""
    state = simulation._state
    return {
        "global": None if state.global_filter is None else feeds[state.global_filter],
        "modules": [feeds[f] for f in state.module_filters],
        "boundary_work": feeds[state.boundary_work],
        "step_work": None if state.step_work is None else feeds[state.step_work],
    }


def _warmup(simulation) -> int:
    """Warm-up intervals the filters were tuned on (at most the trace)."""
    return min(simulation.engine_options.warmup_intervals, simulation.periods)


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_module_baseline_instance_is_a_template(kernel, feeds):
    template = ThresholdDvfsController(paper_module_spec())
    spec = get_scenario("module-baseline-threshold-dvfs", samples=12)
    simulation = build_simulation(
        spec.with_overrides(**{"control.kernel": kernel}), baseline=template
    )
    result = simulation.run()
    assert result.l1_stats.invocations == 12
    assert template.stats.invocations == 0
    # The run's filter fed the copy's decisions, tuned then fed every
    # closed period but the last; the template holds no filter to feed.
    assert _fed(simulation, feeds) == {
        "global": None,
        "modules": [_warmup(simulation) + 12 - 1],
        "boundary_work": 1 + 12 - 1,
        "step_work": None,
    }


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_l1s_under_an_l2_read_only_the_global_filter(kernel, feeds):
    simulation = build_simulation(
        get_scenario("paper/fig6-cluster16", samples=SAMPLES).with_overrides(
            **{"control.kernel": kernel}
        )
    )
    simulation.run()
    # No module filter is built; the global filter and the boundary
    # EWMA are tuned on the warm-up and fed every closed period but
    # the last, and the step EWMA every step.
    assert _fed(simulation, feeds) == {
        "global": _warmup(simulation) + SAMPLES - 1,
        "modules": [],
        "boundary_work": 1 + SAMPLES - 1,
        "step_work": simulation.total_steps,
    }


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_module_l1_forecasts_from_its_own_filter(kernel, feeds):
    simulation = build_simulation(
        get_scenario("paper/fig4-module4", samples=SAMPLES).with_overrides(
            **{"control.kernel": kernel}
        )
    )
    simulation.run()
    # Tuned on the warm-up, then fed every closed period but the last.
    assert _fed(simulation, feeds) == {
        "global": None,
        "modules": [_warmup(simulation) + SAMPLES - 1],
        "boundary_work": 1 + SAMPLES - 1,
        "step_work": simulation.total_steps,
    }


def _count_constructions(monkeypatch) -> dict:
    """Count every arrival filter and EWMA built from now on."""
    counts = {"predictors": 0, "ewmas": 0}

    def counting(cls, key):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    counting(WorkloadPredictor, "predictors")
    counting(EwmaFilter, "ewmas")
    return counts


#: ``(scenario, arrival filters, EWMAs)`` one ``reset()`` builds.
PER_RESET = [
    # The global and fine filters; one EWMA per timescale.
    ("paper/fig6-cluster16", 2, 2),
    # The global filter and one per module; the boundary EWMA.
    ("cluster-baseline-showdown", 5, 1),
    # The module's filter and the fine filter; one EWMA per timescale.
    ("paper/fig4-module4", 2, 2),
    # The module's filter; the boundary EWMA.
    ("module-baseline-threshold-dvfs", 1, 1),
]


@pytest.mark.parametrize(
    "name,predictors,ewmas", PER_RESET, ids=[name for name, _, _ in PER_RESET]
)
def test_one_reset_builds_one_filter_per_signal(
    name, predictors, ewmas, monkeypatch
):
    simulation = build_simulation(get_scenario(name, samples=12))
    counts = _count_constructions(monkeypatch)
    simulation.reset()
    assert counts == {"predictors": predictors, "ewmas": ewmas}


def test_cold_map_training_builds_no_filter(monkeypatch):
    """Training cells pass every forecast and c-hat to ``decide``."""
    monkeypatch.setattr(map_provider, "_MEMO", {})
    spec = paper_module_spec(name="pair", profiles=("c1", "c2"))
    l0_params, l1_params = L0Params(), L1Params()
    trainings = MAP_STATS.trainings
    counts = _count_constructions(monkeypatch)
    provider = map_provider.MapProvider()
    maps = provider.behavior_maps(spec, l0_params, l1_params)
    provider.module_map(spec, maps, l1_params, l0_params)
    assert MAP_STATS.trainings - trainings == 3  # two computers, one module
    assert counts == {"predictors": 0, "ewmas": 0}


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_l1_band_window_reaches_the_l1s_under_an_l2(kernel):
    """Each L1's band is its share of the global filter's, so the global
    filter takes the L1's window."""
    base = build_simulation(
        get_scenario("paper/fig6-cluster16", samples=SAMPLES).with_overrides(
            **{"control.kernel": kernel}
        )
    )

    def run(window):
        return ClusterSimulation(
            base.spec,
            base.trace,
            l0_params=base.l0_params,
            l1_params=dataclasses.replace(base.l1_params, band_window=window),
            l2_params=base.l2_params,
            engine_options=dataclasses.replace(base.engine_options),
        ).run()

    default = _fingerprint(base.run())
    assert base.l1_params.band_window == 20
    assert _same(_fingerprint(run(20)), default)
    assert not _same(_fingerprint(run(5)), default)

