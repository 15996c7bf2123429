"""One L1 pass per boundary: whole runs equal per-module decisions.

The engines decide every module of a boundary in one
:meth:`~repro.controllers.l1.L1Bank.decide` pass. Replacing that pass
by one ``L1Controller.decide`` call per module (a test-only
monkeypatch) must leave every output byte of a run as it is, on both
kernels, with and without machine failures.
"""

import pytest

from repro.common.schema import dump_json, run_payload
from repro.controllers.l1 import L1Bank, L1Controller
from repro.scenario import get_scenario, run_scenario
from repro.sim.observers import DecisionRecorder

#: Module 0 of ``paper/fig6-cluster16`` serves on computer 3 alone from
#: period 2 on: it fails at the period-5 boundary and is repaired at the
#: period-9 one.
FAULTS = ((600.0, 0, 3, "fail"), (1080.0, 0, 3, "repair"))


@pytest.fixture(scope="module", autouse=True)
def shared_map_cache(tmp_path_factory):
    """Train the scenario's abstraction maps once for this module."""
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


def per_module_decide(
    bank, modules, queues, alpha_current, rate_hat, rate_next, delta, work, available
):
    """The pass replaced by one ``decide`` call per module."""
    rows = zip(modules, queues, alpha_current, rate_hat, rate_next, delta, available)
    return [
        bank.controllers[module].decide(q, alpha, hat, rate, band, work, mask)
        for module, q, alpha, hat, rate, band, mask in rows
    ]


def fig6(kernel, faults=(), samples=24):
    spec = get_scenario("paper/fig6-cluster16", samples=samples)
    overrides = {"control.kernel": kernel}
    if faults:
        overrides["faults.events"] = faults
    return spec.with_overrides(**overrides)


def outputs(spec):
    """The run's ``--json`` text and ``--decisions-out`` lines."""
    recorder = DecisionRecorder()
    result = run_scenario(spec, observers=(recorder,))
    return dump_json(run_payload(spec.name, result.summary())), recorder.lines()


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
@pytest.mark.parametrize("faults", [(), FAULTS], ids=["plain", "faulted"])
def test_pass_equals_per_module_decide(monkeypatch, kernel, faults):
    spec = fig6(kernel, faults)
    batched = outputs(spec)
    monkeypatch.setattr(L1Bank, "decide", per_module_decide)
    assert outputs(spec) == batched


def test_the_fault_hits_a_module_s_only_serving_machine():
    recorder = DecisionRecorder()
    run_scenario(fig6("vector", FAULTS), observers=(recorder,))
    module0 = {
        r["period"]: r for r in recorder.records if r["type"] == "l1" and r["module"] == 0
    }
    assert module0[4]["alpha"] == [0, 0, 0, 1]
    assert module0[5]["alpha"][3] == 0 and sum(module0[5]["alpha"]) >= 1


def test_one_pass_per_boundary_and_no_module_decide(monkeypatch):
    calls = {"pass": 0, "decide": 0}
    decide_pass, decide = L1Bank.decide, L1Controller.decide

    def counted_pass(*args, **kwargs):
        calls["pass"] += 1
        return decide_pass(*args, **kwargs)

    def counted_decide(*args, **kwargs):
        calls["decide"] += 1
        return decide(*args, **kwargs)

    monkeypatch.setattr(L1Bank, "decide", counted_pass)
    monkeypatch.setattr(L1Controller, "decide", counted_decide)
    run_scenario(fig6("vector", samples=8))
    assert calls == {"pass": 8, "decide": 0}
