"""Scalar vs vector kernel parity: the scalar path is the oracle.

``control.kernel = "vector"`` (the default) must be a pure speed knob.
Every reference side pins ``"scalar"`` explicitly. These tests enforce
that for every registry scenario — full and windowed recorders — the
vector kernel's deterministic summary is **bit-identical** (``==``, not
approx) to the scalar kernel's, that the batched step executor matches
the per-module runners under faults, mid-period summaries and tracing
in both engines, that observers see the same event stream in the same
order on both kernels, and that each batched primitive (the L0 bank,
the Kalman bank, the baseline act twins, the probability-vector fast
path) reproduces its scalar counterpart exactly.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MemorySink

from repro.cluster.processor import processor_profile
from repro.cluster.specs import ComputerSpec, paper_cluster_spec, paper_module_spec
from repro.common import ConfigurationError
from repro.common.validation import require_probability_vector
from repro.controllers import (
    AlwaysOnMaxController,
    L0Controller,
    ThresholdDvfsController,
    ThresholdOnOffController,
)
from repro.controllers.baselines import BaselineDecision
from repro.controllers.params import L0Params
from repro.core.simplex import quantize_to_simplex
from repro.forecast import WorkloadPredictor
from repro.obs import Tracer
from repro.scenario import (
    Scenario,
    build_simulation,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.sim import (
    ClusterSimulation,
    EngineOptions,
    ModuleRunResult,
    SimulationObserver,
)
from repro.sim.kernels import (
    ClusterVectorExecutor,
    L0BankKernel,
    _fast_probability_vector,
    _fast_quantize,
    batched_predictor_observe,
    fast_baseline_act,
)
from repro.sim.shard import ModuleShardRunner
from repro.workload import ArrivalTrace

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Long enough to cross boot transients, warm-up, and several control
#: periods; short enough that 14 scenarios x several variants stay fast.
SAMPLES = 12

#: Scenarios whose declared events (here: a fault at t=3600s and its
#: repair at t=7200s) need a longer horizon to stay inside the trace.
MIN_SAMPLES = {"module-failover": 64}


def _spec(name):
    return get_scenario(name, samples=MIN_SAMPLES.get(name, SAMPLES))


def _failover_scenario(with_fault: bool):
    builder = (
        Scenario.cluster(p=2, computers_per_module=2)
        .workload("steady", samples=6, rate=40.0)
        .control(warmup_intervals=2)
    )
    if with_fault:
        # t = 300 s is step 10 of the run: period 2 spans steps 8..11,
        # so the failure lands mid-period; the repair hits a boundary.
        # Computer 1 is the module's fast machine — the one actually
        # serving under capacity-proportional gamma — so the failure
        # forces a mid-period re-dispatch.
        builder = builder.with_failures(
            (300.0, 1, 1, "fail"), (480.0, 1, 1, "repair")
        )
    return builder.build()


def _module_failover_scenario():
    """The module twin of :func:`_failover_scenario`'s faulty run.

    The same timeline on one module: the failure at t = 300 s lands on
    step 10, inside period 2 (steps 8..11), and the repair at t = 480 s
    on the period-4 boundary. Computer 3 is the module's fastest
    machine, serving with computer 2 at this load, so the failure forces
    a mid-period re-dispatch onto computer 2.
    """
    return (
        Scenario.module(m=4)
        .workload("steady", samples=6, rate=60.0)
        .control(warmup_intervals=2)
        .with_failures((300.0, 3, "fail"), (480.0, 3, "repair"))
        .build()
    )


def _scalar(spec):
    return spec.with_overrides(**{"control.kernel": "scalar"})


def _vector(spec):
    return spec.with_overrides(**{"control.kernel": "vector"})


def _summary_json(spec):
    return json.dumps(
        run_scenario(spec).summary().deterministic_dict(), sort_keys=True
    )


#: Every array of a :class:`ModuleRunResult`, and of a cluster result.
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


def _assert_runs_identical(scalar, vector):
    """Every deterministic field of two run results, bit for bit.

    Takes two module results or two cluster results; a cluster's module
    results are compared like a module run's.
    """
    assert (
        scalar.summary().deterministic_dict()
        == vector.summary().deterministic_dict()
    )
    if isinstance(scalar, ModuleRunResult):
        pairs = [(scalar, vector)]
    else:
        for name in CLUSTER_ARRAYS:
            assert np.array_equal(
                getattr(scalar, name), getattr(vector, name)
            ), name
        pairs = list(zip(scalar.module_results, vector.module_results))
    for module_scalar, module_vector in pairs:
        for name in MODULE_ARRAYS:
            assert np.array_equal(
                getattr(module_scalar, name),
                getattr(module_vector, name),
                equal_nan=True,
            ), name
        for name in (
            "energy_base",
            "energy_dynamic",
            "energy_transient",
            "switch_ons",
            "switch_offs",
        ):
            assert getattr(module_scalar, name) == getattr(module_vector, name), name
        for name in ("l0_stats", "l1_stats"):
            scalar_stats = getattr(module_scalar, name)
            vector_stats = getattr(module_vector, name)
            assert (scalar_stats.invocations, scalar_stats.states_explored) == (
                vector_stats.invocations,
                vector_stats.states_explored,
            ), name


class TestRegistryScenarioParity:
    """Every registered scenario, scalar vs vector, exact ``==``."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_serial_summary_bit_identical(self, name):
        spec = _spec(name)
        assert _summary_json(_vector(spec)) == _summary_json(_scalar(spec))

    @pytest.mark.parametrize(
        "name",
        [
            "paper/fig6-cluster16",
            "cluster-baseline-showdown",
            "paper/fig4-module4",
            "module-baseline-threshold-dvfs",
        ],
    )
    def test_windowed_summary_bit_identical(self, name):
        spec = _spec(name).with_overrides(
            **{"control.window": 5}
        )
        assert _summary_json(_vector(spec)) == _summary_json(_scalar(spec))

    @pytest.mark.parametrize("name", ["paper/fig6-cluster16", "paper/fig4-module4"])
    def test_full_result_arrays_bit_identical_hierarchy(self, name):
        spec = _spec(name)
        _assert_runs_identical(
            run_scenario(_scalar(spec)), run_scenario(_vector(spec))
        )

    @pytest.mark.parametrize(
        "name", ["cluster-baseline-showdown", "module-baseline-threshold-dvfs"]
    )
    def test_full_result_arrays_bit_identical_baseline(self, name):
        spec = _spec(name)
        _assert_runs_identical(
            run_scenario(_scalar(spec)), run_scenario(_vector(spec))
        )


def _kernel_pair(spec, prepare=None):
    """Built serial simulations of ``spec``: scalar first, then vector."""
    simulations = []
    for kernel in ("scalar", "vector"):
        simulation = build_simulation(
            spec.with_overrides(**{"control.kernel": kernel})
        )
        if prepare is not None:
            prepare(simulation)
        simulations.append(simulation)
    return simulations


class TestClusterExecutorParity:
    """The batched step executor against the per-module runners.

    On ``vector`` a hierarchy step of either engine is one batched L0
    lookahead over every serving computer plus one batched plant step
    (the module engine's executor has one row); on ``scalar`` each
    module's runner decides and steps alone. Faults, mid-period
    summaries, telemetry and bad plant inputs cross the executor's
    mirrors, so each is compared in full here.
    """

    @pytest.mark.parametrize(
        "name", ["paper/fig4-module4", "module-baseline-threshold-dvfs"]
    )
    def test_module_engine_steps_through_the_executor(self, name, monkeypatch):
        counts = {"step_all": 0, "runner": 0}
        step_all = ClusterVectorExecutor.step_all
        runner_step = ModuleShardRunner.step

        def counted_step_all(executor, *args):
            counts["step_all"] += 1
            return step_all(executor, *args)

        def counted_runner_step(runner, inp):
            counts["runner"] += 1
            return runner_step(runner, inp)

        monkeypatch.setattr(ClusterVectorExecutor, "step_all", counted_step_all)
        monkeypatch.setattr(ModuleShardRunner, "step", counted_runner_step)
        simulation = build_simulation(_vector(get_scenario(name, samples=4)))
        simulation.run()
        assert counts == {"step_all": simulation.total_steps, "runner": 0}

    def test_mid_period_fault_and_boundary_repair(self):
        scalar, vector = _kernel_pair(_failover_scenario(with_fault=True))
        _assert_runs_identical(scalar.run(), vector.run())

    def test_module_mid_period_fault_and_boundary_repair(self):
        scalar, vector = _kernel_pair(_module_failover_scenario())
        scalar_result, vector_result = scalar.run(), vector.run()
        _assert_runs_identical(scalar_result, vector_result)
        # Computer 3 serves until the fault at step 10. From then to the
        # repair it holds no queue and serves nothing, and computer 2
        # takes its load.
        responses, queues = vector_result.responses, vector_result.queues
        assert np.isfinite(responses[9, 3])
        assert np.isnan(responses[10:16, 3]).all()
        assert queues[10, 3] == 0.0
        assert queues[10, 2] > queues[9, 2]

    def test_module_fault_on_its_only_serving_machine(self):
        # At this load computer 3 serves alone. Failing it mid-period
        # leaves the gamma with no serving mass, so the runner powers on
        # the fastest survivor and the arrivals queue behind its boot.
        spec = (
            Scenario.module(m=4)
            .workload("steady", samples=6, rate=20.0)
            .control(warmup_intervals=2)
            .with_failures((300.0, 3, "fail"), (600.0, 3, "repair"))
            .build()
        )
        scalar, vector = _kernel_pair(spec)
        scalar_result, vector_result = scalar.run(), vector.run()
        _assert_runs_identical(scalar_result, vector_result)
        assert np.isfinite(vector_result.responses[9, 3])
        assert vector_result.queues[9, 2] == 0.0
        assert vector_result.queues[10, 2] > 0.0
        assert np.isnan(vector_result.responses[10, 2])

    def test_module_override_mid_run(self):
        simulations = _kernel_pair(get_scenario("paper/fig4-module4", samples=8))
        results = []
        for simulation in simulations:
            simulation.reset()
            for _ in range(simulation.substeps + 2):
                simulation.step()
            simulation.set_module_override(0, 3)
            for _ in simulation.steps():
                pass
            results.append(simulation.finish())
        _assert_runs_identical(*results)
        assert (results[1].computers_on[2:] == 3).all()

    def test_fault_on_a_modules_only_serving_machine(self):
        # Module 1 is pinned to its first machine; failing that machine
        # mid-period (t = 300 s is step 10, inside period 2) leaves the
        # gamma with no serving mass, so the runner powers on the
        # survivor and queues the arrivals behind its boot.
        spec = (
            Scenario.cluster(p=2, computers_per_module=2)
            .workload("steady", samples=6, rate=40.0)
            .control(warmup_intervals=2)
            .with_failures((300.0, 1, 0, "fail"), (600.0, 1, 0, "repair"))
            .build()
        )
        scalar, vector = _kernel_pair(
            spec, prepare=lambda simulation: simulation.set_module_override(1, 1)
        )
        scalar_result, vector_result = scalar.run(), vector.run()
        _assert_runs_identical(scalar_result, vector_result)
        module = vector_result.module_results[1]
        assert module.queues[9, 1] == 0.0
        assert module.queues[10, 1] > 0.0
        assert np.isnan(module.responses[10, 1])

    @pytest.mark.parametrize("name", ["paper/fig6-cluster16", "paper/fig4-module4"])
    def test_live_summary_mid_period(self, name):
        spec = get_scenario(name, samples=8)
        simulations = _kernel_pair(spec)
        summaries = []
        for simulation in simulations:
            simulation.reset()
            for _ in range(2 * simulation.substeps + 2):
                simulation.step()
            summaries.append(simulation.live_summary().deterministic_dict())
        assert summaries[0] == summaries[1]
        finished = []
        for simulation in simulations:
            for _ in simulation.steps():
                pass
            finished.append(simulation.finish())
        _assert_runs_identical(*finished)
        # The mid-run flush leaves the run as if it had not been taken.
        _assert_runs_identical(run_scenario(_scalar(spec)), finished[1])

    @pytest.mark.parametrize(
        "name, modules", [("paper/fig6-cluster16", 4), ("paper/fig4-module4", 1)]
    )
    def test_l0_bank_spans_carry_equal_states(self, name, modules):
        spec = get_scenario(name, samples=6)
        spans = []
        for simulation in _kernel_pair(spec):
            sink = MemorySink()
            simulation.set_telemetry(tracer=Tracer(sinks=(sink,)))
            simulation.run()
            spans.append(
                [
                    (span["period"], span["module"], span["states"])
                    for span in sink.spans
                    if span["kind"] == "l0-bank"
                ]
            )
        assert spans[0] == spans[1]
        assert len(spans[1]) == 6 * modules
        assert all(states > 0 for _, _, states in spans[1])

    @pytest.mark.parametrize(
        "engine, baseline",
        [("cluster", "threshold-dvfs"), ("module", "threshold-dvfs"), ("module", None)],
    )
    def test_wide_modules_sum_power_left_to_right(self, engine, baseline):
        # numpy sums a row of 8+ draws pairwise; a module's power is the
        # left-to-right sum of its computers' draws. Rows this wide also
        # skip the executor's response fold: recorders scan them.
        plant = (
            Scenario.cluster(p=2, computers_per_module=8)
            if engine == "cluster"
            else Scenario.module(m=8)
        )
        builder = plant.workload("wc98", samples=12)
        if baseline is not None:
            builder = builder.baseline(baseline)
        scalar, vector = _kernel_pair(builder.build())
        _assert_runs_identical(scalar.run(), vector.run())

    @pytest.mark.parametrize("engine", ["cluster", "module"])
    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    @pytest.mark.parametrize("work", [0.0, float("nan")])
    def test_non_positive_step_work_raises(self, engine, kernel, work):
        scenario = (
            _failover_scenario(with_fault=False)
            if engine == "cluster"
            else _module_failover_scenario()
        )
        spec = scenario.with_overrides(**{"control.kernel": kernel})
        simulation = build_simulation(spec)
        simulation.work_series = np.full(simulation.total_steps, 0.0175)
        simulation.work_series[5] = work
        with pytest.raises(
            ConfigurationError, match=rf"^mean_work must be > 0, got {work}$"
        ):
            simulation.run()


class EventLog(SimulationObserver):
    """Records every hook firing with bit-exact payload fingerprints."""

    def __init__(self) -> None:
        self.events = []

    def on_l1_decision(self, event) -> None:
        self.events.append(
            (
                "l1",
                event.period,
                event.module,
                event.alpha.tobytes(),
                event.gamma.tobytes(),
                event.prediction,
            )
        )

    def on_l2_decision(self, event) -> None:
        self.events.append(
            ("l2", event.period, event.gamma.tobytes(), event.prediction)
        )

    def on_step(self, event) -> None:
        self.events.append(
            (
                "step",
                event.step,
                event.module,
                event.arrivals,
                event.frequencies.tobytes(),
                event.responses.tobytes(),
                event.queues.tobytes(),
                event.power,
            )
        )

    def on_period_end(self, event) -> None:
        module_arrivals = event.module_arrivals
        self.events.append(
            ("period_end", event.period, event.arrivals,
             None if module_arrivals is None else module_arrivals.tobytes())
        )


def _logged_pair(spec):
    """``(scalar result, vector result, scalar log, vector log)``."""
    logs = (EventLog(), EventLog())
    scalar, vector = (
        simulation.run(observers=(log,))
        for simulation, log in zip(_kernel_pair(spec), logs)
    )
    return scalar, vector, *logs


class TestEventStreams:
    """Observers see the same events, in the same order, on both kernels."""

    @pytest.fixture(scope="class")
    def hierarchy_logs(self):
        _, _, scalar_log, vector_log = _logged_pair(
            get_scenario("paper/fig6-cluster16", samples=10)
        )
        return scalar_log, vector_log

    @pytest.fixture(scope="class")
    def fault_pair(self):
        return _logged_pair(_failover_scenario(with_fault=True))

    @pytest.mark.parametrize(
        "spec",
        [get_scenario("paper/fig4-module4", samples=10), _module_failover_scenario()],
        ids=["hierarchy", "fault"],
    )
    def test_module_event_streams_identical(self, spec):
        _, _, scalar_log, vector_log = _logged_pair(spec)
        assert scalar_log.events == vector_log.events

    def test_hierarchy_event_streams_identical(self, hierarchy_logs):
        scalar_log, vector_log = hierarchy_logs
        assert scalar_log.events == vector_log.events

    def test_serial_emission_pattern(self, hierarchy_logs):
        """Per period: L2, then L1 per module in order, then the steps."""
        scalar_log, _ = hierarchy_logs
        kinds = [event[0] for event in scalar_log.events]
        p, substeps = 4, 4
        cursor = 0
        period = 0
        while cursor < len(kinds):
            assert kinds[cursor] == "l2"
            modules = [event[2] for event in
                       scalar_log.events[cursor + 1:cursor + 1 + p]]
            assert kinds[cursor + 1:cursor + 1 + p] == ["l1"] * p
            assert modules == list(range(p))
            steps = kinds[cursor + 1 + p:cursor + 1 + p + substeps * p]
            assert steps == ["step"] * substeps * p
            cursor += 1 + p + substeps * p
            assert kinds[cursor] == "period_end"
            assert scalar_log.events[cursor][1] == period
            cursor += 1
            period += 1

    def test_fault_event_streams_identical(self, fault_pair):
        _, _, scalar_log, vector_log = fault_pair
        assert scalar_log.events == vector_log.events

    def test_fault_actually_fired(self, fault_pair):
        faulty, _, _, _ = fault_pair
        healthy = build_simulation(_failover_scenario(with_fault=False)).run()
        faulty_module = faulty.module_results[1]
        healthy_module = healthy.module_results[1]
        assert not np.array_equal(
            faulty_module.frequencies, healthy_module.frequencies
        )
        # While failed, the machine is excluded from the L1's alpha.
        assert faulty_module.computers_on[3] <= 1


class _NanGammaBaseline(ThresholdOnOffController):
    """A custom baseline whose gamma carries a NaN."""

    def act(self, rate, work, alpha_current):
        decision = super().act(rate, work, alpha_current)
        gamma = decision.gamma.copy()
        gamma[0] = np.nan
        return BaselineDecision(
            alpha=decision.alpha,
            gamma=gamma,
            frequency_indices=decision.frequency_indices,
        )


class TestNonFiniteGamma:
    """A NaN gamma is rejected with the same one-line error on both kernels."""

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_custom_baseline_nan_gamma_raises(self, kernel):
        simulation = ClusterSimulation(
            paper_cluster_spec(),
            ArrivalTrace(np.full(16, 3000.0), 30.0),
            baseline=_NanGammaBaseline,
            engine_options=EngineOptions(kernel=kernel, warmup_intervals=2),
        )
        with pytest.raises(
            ConfigurationError, match=r"^gamma\[0\] must be finite, got nan$"
        ):
            simulation.run()


def _assert_rows_decide_like_scalar(result, scalar, rows, queues, rates, works):
    """Each row of a ``decide_many`` result against its scalar ``decide``.

    ``result`` is the bank's settings array; ``scalar`` holds fresh
    controllers, one per bank position, whose stats the calls here
    record.
    """
    assert len(result) == len(rows)
    for setting, row, queue, rate, work in zip(result, rows, queues, rates, works):
        expected = scalar[row].decide(queue, np.asarray(rate), work)
        assert setting == expected.frequency_index


def _assert_stats_like_scalar(bank, scalar):
    """Each bank controller's counts equal its scalar twin's."""
    assert len(bank.controllers) == len(scalar)
    for scalar_l0, bank_l0 in zip(scalar, bank.controllers):
        assert (bank_l0.stats.invocations, bank_l0.stats.states_explored) == (
            scalar_l0.stats.invocations,
            scalar_l0.stats.states_explored,
        )


class TestL0BankParity:
    """The batched L0 lookahead against per-controller ``decide``."""

    def _controllers(self):
        return [L0Controller(c) for c in paper_module_spec().computers]

    def test_decide_many_matches_scalar_decide(self):
        scalar = self._controllers()
        bank = L0BankKernel(self._controllers())
        queues = [0.0, 3.5, 12.0, 40.0]
        rates = [
            np.array([80.0, 90.0, 100.0]),
            np.array([0.0, 10.0, 5.0]),
            np.array([400.0, 350.0, 300.0]),
            np.array([55.5, 55.5, 55.5]),
        ]
        works = [0.0175, 0.02, 0.0175, 0.01]
        rows = [0, 1, 2, 3]
        batched = bank.decide_many(rows, queues, rates, works)
        _assert_rows_decide_like_scalar(batched, scalar, rows, queues, rates, works)
        _assert_stats_like_scalar(bank, scalar)

    def test_decide_many_subset_and_order(self):
        scalar = self._controllers()
        bank = L0BankKernel(self._controllers())
        rows = [2, 0]
        queues = [7.0, 1.0]
        rates = [np.array([120.0, 110.0, 100.0]), np.array([60.0, 70.0, 80.0])]
        works = [0.0175, 0.0175]
        batched = bank.decide_many(rows, queues, rates, works)
        _assert_rows_decide_like_scalar(batched, scalar, rows, queues, rates, works)
        _assert_stats_like_scalar(bank, scalar)

    def test_cluster_bank_matches_scalar_decide(self):
        # One bank over all sixteen computers of the paper cluster (5- to
        # 10-setting processors, so mostly ragged calls), fed arrays, with work
        # estimates that repeat (constants reused) and drift (rebuilt).
        computers = [
            c for module in paper_cluster_spec().modules for c in module.computers
        ]
        assert len({c.processor.setting_count for c in computers}) > 1
        scalar = [L0Controller(c) for c in computers]
        bank = L0BankKernel([L0Controller(c) for c in computers])
        rng = np.random.default_rng(11)
        n = len(computers)
        works = np.full(n, 0.0175)
        for call in range(12):
            rows = np.flatnonzero(rng.uniform(size=n) > 0.25)
            queues = rng.uniform(0.0, 40.0, rows.size)
            queues[rng.uniform(size=rows.size) < 0.3] = 0.0
            rates = rng.uniform(0.0, 400.0, (rows.size, 3))
            if call % 3 == 2:
                works = works * rng.uniform(0.9, 1.1, n)
            batched = bank.decide_many(rows, queues, rates, works[rows])
            _assert_rows_decide_like_scalar(
                batched, scalar, rows, queues, rates, works[rows]
            )
        _assert_stats_like_scalar(bank, scalar)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rates_pick_like_scalar(self, bad):
        # Padded paths stay priced out even when every real path costs
        # inf or NaN: the winner is the scalar argmin's first path.
        computers = [
            c for module in paper_cluster_spec().modules for c in module.computers
        ]
        bank = L0BankKernel([L0Controller(c) for c in computers])
        rates = np.full((len(computers), 3), bad)
        queues = np.zeros(len(computers))
        works = np.full(len(computers), 0.0175)
        rows = np.arange(len(computers))
        batched = bank.decide_many(rows, queues, rates, works)
        scalar = [L0Controller(c) for c in computers]
        _assert_rows_decide_like_scalar(batched, scalar, rows, queues, rates, works)

    @pytest.mark.parametrize("work", [0.0, -0.01, np.nan])
    def test_non_positive_work_rejected(self, work):
        # On a fresh bank, and after a good call of the same rows (the
        # c-hats are checked where the bank's constants are rebuilt).
        bank = L0BankKernel(self._controllers())
        rates = np.full((2, 3), 50.0)
        for good_call_first in (False, True):
            if good_call_first:
                bank.decide_many([0, 1], [0.0, 0.0], rates, [0.0175, 0.0175])
            with pytest.raises(ConfigurationError, match="work_estimate"):
                bank.decide_many([0, 1], [0.0, 0.0], rates, [0.0175, work])

    def test_stats_recorded_like_scalar(self):
        bank = L0BankKernel(self._controllers())
        bank.decide_many(
            [0, 1],
            [2.0, 2.0],
            [np.array([100.0] * 3)] * 2,
            [0.0175, 0.0175],
        )
        scalar = self._controllers()
        for j in (0, 1):
            scalar[j].decide(2.0, np.array([100.0] * 3), 0.0175)
        _assert_stats_like_scalar(bank, scalar)


#: Every processor profile a registry cluster mixes: 5, 6, 6, 7 and 10
#: settings.
BANK_PROFILES = ("c1", "c2", "c3", "c4", "pentium_m")

#: Arrival rates (requests/s): idle, negative (clipped to 0), loads up
#: to several times a fast machine's ~70/s at full speed, and non-finite.
_rate = st.one_of(
    st.floats(-50.0, 400.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-12, np.nan, np.inf, -np.inf]),
)


@st.composite
def _bank_call(draw, size, horizon):
    """One ``decide_many`` call: a subset of a bank in any order, with
    queues from empty to well past a period's capacity (a fast machine
    serves ~2,000 requests per 30 s period), rates per depth and c-hats
    from a few values, so calls repeat and change them."""
    rows = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    queues = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 9000.0, allow_nan=False)),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    rates = draw(
        st.lists(
            st.lists(_rate, min_size=horizon, max_size=horizon),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    works = draw(
        st.lists(
            st.sampled_from([0.0175, 0.014, 0.021, 0.0175 * 1.01]),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    return rows, queues, rates, works


class TestL0BankProperties:
    """``decide_many`` against each row's ``L0Controller.decide``, on
    drawn banks, horizons, margins and calls."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_call_decides_like_scalar(self, data):
        profiles = data.draw(st.lists(st.sampled_from(BANK_PROFILES), min_size=1, max_size=7))
        horizon = data.draw(st.integers(1, 3))
        params = L0Params(horizon=horizon, robustness_margin=data.draw(st.sampled_from([0.0, 0.1])))
        specs = [
            ComputerSpec(name=f"C{j}", processor=processor_profile(profile))
            for j, profile in enumerate(profiles)
        ]
        bank = L0BankKernel([L0Controller(spec, params) for spec in specs])
        scalar = [L0Controller(spec, params) for spec in specs]
        call = None
        for _ in range(data.draw(st.integers(1, 4))):
            # A call repeats the previous one (constants and layout
            # reused) or draws anew.
            if call is None or not data.draw(st.booleans()):
                call = data.draw(_bank_call(len(specs), horizon))
            rows, queues, rates, works = call
            batched = bank.decide_many(
                np.array(rows), np.array(queues), np.array(rates), np.array(works)
            )
            _assert_rows_decide_like_scalar(batched, scalar, rows, queues, rates, works)
        _assert_stats_like_scalar(bank, scalar)


class TestShortHorizonRuns:
    """Every registry scenario runs the paper's N_L0 = 3, and the bank's
    first action is ``best // width ** (horizon - 1)``: horizons 1 and 2
    run here, scalar against vector."""

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_fig6_cluster16_bit_identical(self, horizon, monkeypatch):
        spec = get_scenario("paper/fig6-cluster16", samples=48).with_overrides(
            **{"control.l0": {"horizon": horizon}}
        )
        scalar = run_scenario(_scalar(spec))
        ragged = []
        expand_ragged = L0BankKernel._expand_ragged

        def spy(self, layout, *args):
            ragged.append(len(layout.fanouts))
            return expand_ragged(self, layout, *args)

        monkeypatch.setattr(L0BankKernel, "_expand_ragged", spy)
        vector = run_scenario(_vector(spec))
        assert json.dumps(
            scalar.summary().deterministic_dict(), sort_keys=True
        ) == json.dumps(vector.summary().deterministic_dict(), sort_keys=True)
        _assert_runs_identical(scalar, vector)
        # The run stepped mixed calls at this horizon, and its widest
        # tree (pentium_m's 10 settings) bounds every decision's states.
        assert ragged and set(ragged) == {horizon}
        for module in vector.module_results:
            assert 0 < module.l0_stats.mean_states <= sum(10**d for d in range(1, horizon + 1))


def _tuned_predictor():
    """A filter whose noise variances ``tune_on`` set (the engines' warm-up)."""
    predictor = WorkloadPredictor()
    predictor.tune_on(np.linspace(900.0, 1500.0, 12) + np.tile([0.0, 60.0, -45.0], 4))
    return predictor


#: Filter factories by index in the bank: default, ``tune_on``-tuned
#: (the L2's, a baseline's, the module L1's), a non-default band window
#: (an L1's ``band_window``), and a bank mixing all three.
PREDICTORS = {
    "default": lambda i: WorkloadPredictor(),
    "tuned": lambda i: _tuned_predictor(),
    "band-window-5": lambda i: WorkloadPredictor(band_window=5),
    "mixed": lambda i: (
        WorkloadPredictor(),
        _tuned_predictor(),
        WorkloadPredictor(band_window=5),
    )[i % 3],
}


class TestKalmanBankParity:
    """Batched predictor observe against the scalar filter, bit for bit."""

    def _banks(self, make, count=4, prime=6):
        rng = np.random.default_rng(7)
        trace = rng.uniform(50.0, 5000.0, size=(count, prime + 24))
        scalar = [make(i) for i in range(count)]
        batched = [make(i) for i in range(count)]
        for t in range(prime):
            for a, b, value in zip(scalar, batched, trace[:, t]):
                a.observe(float(value))
                b.observe(float(value))
        return scalar, batched, trace, prime

    def _assert_filters_identical(self, scalar, batched):
        for a, b in zip(scalar, batched):
            assert np.array_equal(a._filter.state, b._filter.state)
            assert np.array_equal(a._filter.cov, b._filter.cov)
            assert np.array_equal(a.forecast(3), b.forecast(3))
            assert a.band.delta == b.band.delta

    @pytest.mark.parametrize("make", PREDICTORS.values(), ids=PREDICTORS.keys())
    def test_primed_banks_bit_identical(self, make):
        scalar, batched, trace, prime = self._banks(make)
        for t in range(prime, trace.shape[1]):
            for a, value in zip(scalar, trace[:, t]):
                a.observe(float(value))
            batched_predictor_observe(batched, list(trace[:, t]))
        self._assert_filters_identical(scalar, batched)

    @pytest.mark.parametrize("band_window", [20, 5])
    def test_unprimed_bank_falls_back_to_scalar(self, band_window):
        scalar = [WorkloadPredictor(band_window=band_window) for _ in range(3)]
        batched = [WorkloadPredictor(band_window=band_window) for _ in range(3)]
        values = [100.0, 250.0, 975.5]
        for a, value in zip(scalar, values):
            a.observe(value)
        batched_predictor_observe(batched, values)
        self._assert_filters_identical(scalar, batched)


class TestBaselineActParity:
    """``fast_baseline_act`` against ``act`` for every stock policy."""

    OBSERVATIONS = [9000.0, 11000.0, 14000.0, 12500.0, 8000.0, 15000.0]

    def _rate(self, period=120.0):
        """The one-step rate of a filter fed per ``period``.

        The filter sees the same arrival rates as counts per ``period``,
        and the rate is its forecast over ``period``, as a run reads it
        on either kernel.
        """
        predictor = WorkloadPredictor()
        for count in self.OBSERVATIONS:
            predictor.observe(count * period / 120.0)
        return float(predictor.forecast(1)[0]) / period

    @pytest.mark.parametrize(
        "factory",
        [AlwaysOnMaxController, ThresholdOnOffController, ThresholdDvfsController],
        ids=["always-on-max", "threshold-on-off", "threshold-dvfs"],
    )
    @pytest.mark.parametrize(
        "alpha",
        [
            np.ones(4, dtype=bool),
            np.array([True, False, True, False]),
            np.zeros(4, dtype=bool),
        ],
        ids=["all-on", "half-on", "all-off"],
    )
    @pytest.mark.parametrize("period", [120.0, 60.0])
    def test_decision_bit_identical(self, factory, alpha, period):
        """Both paths decide as at 120 s: the same rates, a shorter period."""
        rate = self._rate(period)
        expected = factory(paper_module_spec()).act(self._rate(), 0.0175, alpha.copy())
        for decision in (
            factory(paper_module_spec()).act(rate, 0.0175, alpha.copy()),
            fast_baseline_act(factory(paper_module_spec()), rate, 0.0175, alpha.copy()),
        ):
            assert np.array_equal(decision.alpha, expected.alpha)
            assert np.array_equal(decision.gamma, expected.gamma)
            assert np.array_equal(
                decision.frequency_indices, expected.frequency_indices
            )

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: Scenario.module(m=4).workload("synthetic", samples=48),
            lambda: Scenario.cluster(p=4).workload("wc98", samples=48),
        ],
        ids=["module", "cluster"],
    )
    def test_60s_runs_meet_the_sla_on_both_kernels(self, builder):
        """A baseline converts its forecast with the run's control period."""
        spec = builder().baseline("threshold-dvfs").build().with_overrides(
            **{"control.l1": {"period": 60.0}}
        )
        scalar = run_scenario(_scalar(spec)).summary()
        vector = run_scenario(_vector(spec)).summary()
        assert scalar.violation_fraction < 0.01
        assert scalar.deterministic_dict() == vector.deterministic_dict()

    def test_both_kernels_hand_the_baseline_one_rate_from_a_nan_filter(self):
        # A primed filter in state [nan, 1.0] forecasts nan. Both kernels'
        # boundaries read the filter's own forecast, so the baseline gets
        # the same rate on each.
        spec = (
            Scenario.module(m=4)
            .workload("synthetic", samples=8)
            .baseline("threshold-dvfs")
            .build()
        )
        rates = []
        for kernel_spec in (_scalar(spec), _vector(spec)):
            simulation = build_simulation(kernel_spec).reset()
            state = simulation._state
            (predictor,) = state.module_filters
            predictor.observe(9000.0)
            predictor._filter.state = np.array([np.nan, 1.0])
            _, (boundary,) = simulation._boundary(state, 1, 120.0, None)
            rates.append(boundary.rate_hat)
        assert [repr(rate) for rate in rates] == ["nan", "nan"]

    def test_unknown_subclass_falls_back_to_scalar_act(self):
        class Custom(ThresholdOnOffController):
            pass

        rate = self._rate()
        alpha = np.ones(4, dtype=bool)
        expected = Custom(paper_module_spec()).act(rate, 0.0175, alpha)
        decision = fast_baseline_act(Custom(paper_module_spec()), rate, 0.0175, alpha)
        assert np.array_equal(decision.alpha, expected.alpha)
        assert np.array_equal(decision.gamma, expected.gamma)


class TestProbabilityVectorFastPath:
    """The scalar-Python accept path of ``require_probability_vector``."""

    @pytest.mark.parametrize(
        "gamma",
        [
            [1.0],
            [0.25, 0.75],
            [0.3, 0.3, 0.4],
            [0.0, 0.0, 1.0, 0.0],
            [-5e-7, 0.5, 0.5000005],  # clamps the tiny negative, like numpy
            [1.0 / 7.0] * 7,
        ],
    )
    def test_accepted_vectors_match_validator(self, gamma):
        for candidate in (list(gamma), np.array(gamma, dtype=float)):
            fast = _fast_probability_vector(candidate, len(gamma))
            assert fast is not None
            expected = require_probability_vector(gamma, "gamma")
            assert fast == list(expected)

    @pytest.mark.parametrize(
        "gamma",
        [
            [0.5, 0.6],  # sum off
            [-0.1, 1.1],  # negative beyond tolerance
        ],
    )
    def test_invalid_vectors_defer_to_validator(self, gamma):
        assert _fast_probability_vector(gamma, len(gamma)) is None
        with pytest.raises(ConfigurationError):
            require_probability_vector(gamma, "gamma")

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_defer_to_validator(self, position, bad):
        gamma = [0.5, 0.5, 0.0]
        gamma[position] = bad
        for candidate in (list(gamma), np.array(gamma)):
            assert _fast_probability_vector(candidate, 3) is None
        with pytest.raises(
            ConfigurationError,
            match=rf"^gamma\[{position}\] must be finite, got {bad}$",
        ):
            require_probability_vector(gamma, "gamma")

    def test_wide_vectors_defer(self):
        # numpy's pairwise summation kicks in at 8 elements; the fast
        # path must refuse rather than risk a different accept decision.
        gamma = [0.125] * 8
        assert _fast_probability_vector(gamma, 8) is None
        assert _fast_probability_vector(np.array(gamma), 8) is None

    def test_shape_and_dtype_mismatches_defer(self):
        assert _fast_probability_vector([0.5, 0.5], 3) is None
        assert (
            _fast_probability_vector(
                np.array([0.5, 0.5], dtype=np.float32), 2
            )
            is None
        )
        assert (
            _fast_probability_vector(np.array([[0.5, 0.5]]), 2) is None
        )


class TestFastQuantize:
    """The plain-float twin of ``quantize_to_simplex``, bit for bit."""

    def test_all_zero_weights_spread_evenly_like_the_reference(self):
        for n, step in ((3, 0.1), (4, 0.25), (7, 0.05)):
            k = round(1.0 / step)
            assert _fast_quantize([0.0] * n, k, step) == (
                quantize_to_simplex(np.zeros(n), step).tolist()
            )
