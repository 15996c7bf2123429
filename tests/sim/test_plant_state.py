"""One plant state, shared by the plant objects and the vector executor.

Every computer's queue, power state, boot countdown and DVFS setting
lives in the run's :class:`~repro.cluster.state.PlantState`. These tests
pin three things: the objects write through to it (a standalone object
gets a state of its own, and a counter moves only on a real change); a
control-period boundary's cost on the executor (its lifecycle masks are
rebuilt only after a power-state change and its prices re-made only
after a setting change); and scalar-vector identity over generated fault
schedules and overrides on small clusters of mixed processors.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Computer, MachineLifecycle, Module, PowerState
from repro.cluster.processor import PROCESSOR_PROFILES, processor_profile
from repro.cluster.specs import ClusterSpec, ComputerSpec, ModuleSpec, paper_module_spec
from repro.cluster.state import DRAINING, FAILED, ON, PlantState
from repro.common import ControlError
from repro.scenario import build_simulation, get_scenario
from repro.sim import ClusterSimulation, EngineOptions
from repro.sim.kernels import ClusterVectorExecutor
from repro.sim.observers import DecisionRecorder
from repro.workload import ArrivalTrace


def _cluster(profiles) -> ClusterSpec:
    """A cluster whose module i runs the processor profiles ``profiles[i]``."""
    return ClusterSpec(
        name="generated",
        modules=tuple(
            ModuleSpec(
                name=f"M{i + 1}",
                computers=tuple(
                    ComputerSpec(name=f"M{i + 1}.C{j + 1}", processor=processor_profile(p))
                    for j, p in enumerate(row)
                ),
            )
            for i, row in enumerate(profiles)
        ),
    )


class TestWriteThrough:
    def test_a_module_is_one_row_of_the_run_state(self):
        spec = paper_module_spec()
        plant = PlantState([4, 2])
        first = Module(spec, plant=plant, row=0)
        second = Module(
            ModuleSpec(name="M2", computers=spec.computers[:2]), plant=plant, row=1
        )
        first.computers[2].queue = 7.5
        second.computers[1].power_off()
        second.computers[0].set_frequency_index(0)
        assert plant.queues.tolist() == [[0.0, 0.0, 7.5, 0.0], [0.0, 0.0, 0.0, 0.0]]
        assert plant.power_states[1].tolist() == [ON, DRAINING, 0, 0]
        assert second.computers[1].lifecycle.state is PowerState.DRAINING
        assert plant.settings[1, 0] == 0
        assert plant.phis[1, 0] == second.computers[0].phi == spec.computers[0].processor.scaling_factor(0)
        assert plant.frequencies[1, 0] == second.computers[0].frequency_ghz == 0.6
        # The module's queue row is a view of the state, not a copy.
        assert np.shares_memory(first.queue_lengths, plant.queues)
        plant.queues[0, 1] = 3.0
        assert first.queue_lengths.tolist() == [0.0, 3.0, 7.5, 0.0]
        assert first.computers[1].queue == 3.0

    def test_standalone_objects_get_a_state_of_their_own(self):
        spec = paper_module_spec().computers[0]
        one, two = Computer(spec), Computer(spec)
        one.queue = 4.0
        one.power_off()
        assert (two.queue, two.lifecycle.state) == (0.0, PowerState.ON)
        lifecycle = MachineLifecycle(boot_delay=60.0, initially_on=False)
        lifecycle.power_on()
        assert lifecycle.state is PowerState.BOOTING
        lifecycle.tick(60.0, queue_empty=True)
        assert lifecycle.state is PowerState.ON

    def test_counters_move_only_on_a_real_change(self):
        module = Module(paper_module_spec())
        plant = module.computers[0]._plant
        assert (plant.power_changes, plant.setting_changes) == (0, 0)
        module.apply_configuration(np.ones(4, dtype=bool))
        module.set_frequency_indices([c.frequency_index for c in module.computers])
        module.computers[0].lifecycle.repair()  # not failed: no change
        assert (plant.power_changes, plant.setting_changes) == (0, 0)
        module.apply_configuration(np.array([True, False, True, True]))
        module.set_frequency_indices([0, 0, 2, 6])  # three computers change
        assert (plant.power_changes, plant.setting_changes) == (1, 3)
        assert [c.frequency_index for c in module.computers] == [0, 0, 2, 6]
        module.fail_computer(2)
        module.fail_computer(2)
        assert plant.power_changes == 2
        assert module.available_mask.tolist() == [True, True, False, True]
        assert plant.power_states[0, 2] == FAILED

    def test_a_setting_write_is_checked(self):
        module = Module(paper_module_spec())
        with pytest.raises(ControlError, match="out of range 0..4"):
            module.set_frequency_indices([5, 0, 0, 0])
        with pytest.raises(ControlError, match="out of range"):
            module.computers[3].set_frequency_index(7)
        assert module.computers[0]._plant.setting_changes == 0


class _CostSpy:
    """Counts each ``step_all``'s cache rebuilds and pricings.

    Each logged step holds the step index, whether a power state or a
    setting changed since the executor last built or priced its cache
    (read as the step begins, after any boundary), whether the step's
    own L0 decisions changed a setting, and the two counts.
    """

    def __init__(self, monkeypatch):
        self.log = []
        counts = self.counts = {"rebuild": 0, "price": 0}
        step_all = ClusterVectorExecutor.step_all
        rebuild = ClusterVectorExecutor._rebuild_cache
        price = ClusterVectorExecutor._price_settings

        def counted_rebuild(executor):
            counts["rebuild"] += 1
            return rebuild(executor)

        def counted_price(executor, cache, work):
            counts["price"] += 1
            return price(executor, cache, work)

        def spied_step_all(executor, step, *args):
            plant, cache = executor.plant, executor._cache
            power_changed = cache is None or cache["power_changes"] != plant.power_changes
            setting_changed = cache is None or cache["setting_changes"] != plant.setting_changes
            before = plant.setting_changes
            counts.update(rebuild=0, price=0)
            events = step_all(executor, step, *args)
            # A boot or drain the step's tick ends counts for the next step.
            self.log.append(
                (
                    step,
                    power_changed,
                    setting_changed,
                    plant.setting_changes != before,
                    counts["rebuild"],
                    counts["price"],
                )
            )
            return events

        monkeypatch.setattr(ClusterVectorExecutor, "_rebuild_cache", counted_rebuild)
        monkeypatch.setattr(ClusterVectorExecutor, "_price_settings", counted_price)
        monkeypatch.setattr(ClusterVectorExecutor, "step_all", spied_step_all)


class TestBoundaryCost:
    """A boundary refreshes the executor's cache only for what changed."""

    @pytest.mark.parametrize(
        "name, samples",
        [("cluster-baseline-showdown", 96), ("paper/fig6-cluster16", 48)],
    )
    def test_cache_work_follows_the_changes(self, name, samples, monkeypatch):
        spy = _CostSpy(monkeypatch)
        simulation = build_simulation(get_scenario(name, samples=samples))
        simulation.run()
        kinds = set()
        for step, power, setting, decided, rebuilds, prices in spy.log:
            boundary = step % simulation.substeps == 0
            # A power-state change rebuilds the masks, once; nothing else does.
            assert rebuilds == int(power), step
            # Prices are re-made once after any change, else never.
            assert prices == int(power or setting or decided), step
            if boundary:
                kinds.add("rebuild" if power else "price" if setting else "none")
        # Every kind of boundary occurred, so each clause above was exercised.
        if name == "cluster-baseline-showdown":
            assert kinds == {"rebuild", "price", "none"}
        else:
            # A hierarchy boundary itself changes no setting; the L0s'
            # changes are priced in the step that makes them.
            assert kinds == {"rebuild", "none"}

    def test_an_unchanged_boundary_touches_nothing(self, monkeypatch):
        spy = _CostSpy(monkeypatch)
        simulation = build_simulation(
            get_scenario("cluster-baseline-showdown", samples=96)
        )
        simulation.run()
        quiet = [
            entry
            for entry in spy.log
            if entry[0] % simulation.substeps == 0 and not entry[1] and not entry[2]
        ]
        assert quiet
        assert all(entry[4:] == (0, 0) for entry in quiet)


# ----------------------------------------------------------------------
# Generated fault schedules and overrides: scalar against vector
# ----------------------------------------------------------------------

#: Steps per run: six control periods of four T_L0 steps.
STEPS = 24
SUBSTEPS = 4
#: The one hierarchy cluster every generated fault schedule runs on
#: (its maps train once per process): three modules of two, three and
#: four computers, of five processors with 5 to 10 settings.
HIERARCHY = (("c1", "pentium_m"), ("c2", "c3", "c4"), ("c4", "c1", "c3", "c2"))
BASELINES = ("threshold-dvfs", "threshold-on-off", "always-on-max")

_counts = st.lists(
    st.floats(min_value=0.0, max_value=2400.0, allow_nan=False),
    min_size=STEPS,
    max_size=STEPS,
)
_window = st.sampled_from([None, 5])


@st.composite
def _override(draw, sizes):
    """``None`` or ``(module, machines on, from step, until step | None)``."""
    if not draw(st.booleans()):
        return None
    module = draw(st.integers(0, len(sizes) - 1))
    start = draw(st.integers(0, STEPS - 2))
    until = draw(st.none() | st.integers(start + 1, STEPS - 1))
    return module, draw(st.integers(1, sizes[module])), start, until


@st.composite
def _fault_schedule(draw):
    """Fail/repair events on boundaries and mid-period, and an override.

    In half the schedules the override instead pins one module to its
    first machine from the start, and that machine fails mid-period: the
    module's only serving machine, so its runner powers on the fastest
    survivor.
    """
    sizes = [len(row) for row in HIERARCHY]
    events = []
    for _ in range(draw(st.integers(0, 4))):
        step = draw(
            st.integers(1, STEPS - 1)
            if draw(st.booleans())
            else st.integers(1, STEPS // SUBSTEPS - 1).map(lambda p: p * SUBSTEPS)
        )
        module = draw(st.integers(0, len(sizes) - 1))
        computer = draw(st.integers(0, sizes[module] - 1))
        events.append((30.0 * step, module, computer, draw(st.sampled_from(["fail", "repair"]))))
    override = draw(_override(sizes))
    if draw(st.booleans()):
        module = draw(st.integers(0, len(sizes) - 1))
        step = draw(st.integers(1, STEPS - 1).filter(lambda s: s % SUBSTEPS))
        events.append((30.0 * step, module, 0, "fail"))
        override = (module, 1, 0, None)
    # In time order (the engines' stable sort), drop a failure that
    # would leave a module no machine: its L1 could not decide.
    failed = [set() for _ in sizes]
    kept = []
    for event in sorted(events, key=lambda e: e[0]):
        _, module, computer, kind = event
        if kind == "fail":
            if failed[module] | {computer} == set(range(sizes[module])):
                continue
            failed[module].add(computer)
        else:
            failed[module].discard(computer)
        kept.append(event)
    return kept, override


@st.composite
def _baseline_cluster(draw):
    """Up to three modules of up to four computers of any processor."""
    profile = st.sampled_from(sorted(PROCESSOR_PROFILES))
    rows = draw(
        st.lists(st.lists(profile, min_size=1, max_size=4), min_size=1, max_size=3)
    )
    override = draw(_override([len(row) for row in rows]))
    return rows, draw(st.sampled_from(BASELINES)), override


def _run(spec, counts, kernel, window, override, baseline=None, events=()):
    """One run's deterministic summary, decision records and step rows."""
    simulation = ClusterSimulation(
        spec,
        ArrivalTrace(np.array(counts), 30.0),
        baseline=baseline,
        failure_events=tuple(events),
        engine_options=EngineOptions(
            kernel=kernel, warmup_intervals=2, recorder_window=window
        ),
    )
    decisions = DecisionRecorder()
    simulation.reset(observers=(decisions,))
    for step in range(simulation.total_steps):
        if override is not None:
            module, on, start, until = override
            if step == start:
                simulation.set_module_override(module, on)
            elif step == until:
                simulation.set_module_override(module, None)
        simulation.step()
    result = simulation.finish()
    rows = [
        (m.queues.tolist(), m.responses.tolist(), m.frequencies.tolist(), m.power.tolist())
        for m in result.module_results
    ]
    return (
        json.dumps(result.summary().deterministic_dict(), sort_keys=True),
        decisions.lines(),
        json.dumps(rows),
    )


class TestGeneratedSchedules:
    @settings(max_examples=40, deadline=None)
    @given(schedule=_fault_schedule(), counts=_counts, window=_window)
    def test_faults_and_overrides_match_the_scalar_oracle(self, schedule, counts, window):
        events, override = schedule
        spec = _cluster(HIERARCHY)
        scalar, vector = (
            _run(spec, counts, kernel, window, override, events=events)
            for kernel in ("scalar", "vector")
        )
        assert vector == scalar

    @settings(max_examples=40, deadline=None)
    @given(cluster=_baseline_cluster(), counts=_counts, window=_window)
    def test_baseline_clusters_match_the_scalar_oracle(self, cluster, counts, window):
        rows, baseline, override = cluster
        spec = _cluster(rows)
        scalar, vector = (
            _run(spec, counts, kernel, window, override, baseline=baseline)
            for kernel in ("scalar", "vector")
        )
        assert vector == scalar
