"""Every ``reset()`` starts a fresh run; a boundary feeds only read filters.

Both engines build their controllers per run, so two ``run()``\\ s of
one simulation agree on every result array and every controller count,
and a baseline handed to :class:`ModuleSimulation` is a template the
engine never mutates. The shared interval close feeds exactly the
filters the coming decisions read: an L1 under an L2 forecasts from its
share of the global filter, so its own arrival filter is never tuned or
observed.
"""

import os

import numpy as np
import pytest

from repro.cluster import paper_module_spec
from repro.controllers import ThresholdDvfsController
from repro.controllers.l1 import L1Controller
from repro.scenario import build_simulation, get_scenario
from repro.sim import ClusterRunResult


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


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_module_baseline_instance_is_a_template(kernel):
    template = ThresholdDvfsController(paper_module_spec())
    spec = get_scenario("module-baseline-threshold-dvfs", samples=12)
    simulation = build_simulation(
        spec.with_overrides(**{"control.kernel": kernel}), baseline=template
    )
    result = simulation.run()
    assert result.l1_stats.invocations == 12
    assert template.stats.invocations == 0
    assert template.predictor.observations == 0
    assert template.work_filter.count == 0


def _track_l1s(monkeypatch) -> list:
    """Collect every :class:`L1Controller` built from now on."""
    built = []
    init = L1Controller.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(L1Controller, "__init__", tracking_init)
    return built


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_l1_arrival_filters_under_an_l2_are_never_fed(monkeypatch, kernel):
    simulation = build_simulation(
        get_scenario("paper/fig6-cluster16", samples=SAMPLES).with_overrides(
            **{"control.kernel": kernel}
        )
    )
    built = _track_l1s(monkeypatch)
    simulation.run()
    assert len(built) == simulation.spec.module_count
    assert [l1.predictor.observations for l1 in built] == [0] * len(built)
    # Their work filters are read by every decision, so they are fed.
    assert all(l1.work_filter.count > 0 for l1 in built)


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_module_l1_forecasts_from_its_own_filter(monkeypatch, kernel):
    simulation = build_simulation(
        get_scenario("paper/fig4-module4", samples=SAMPLES).with_overrides(
            **{"control.kernel": kernel}
        )
    )
    built = _track_l1s(monkeypatch)
    simulation.run()
    (l1,) = built
    # Tuned on the warm-up, then fed every closed period but the last.
    warmup = min(simulation.engine_options.warmup_intervals, SAMPLES)
    assert l1.predictor.observations == warmup + SAMPLES - 1
    assert l1.work_filter.count == 1 + SAMPLES - 1
