"""Replay through the service path is bit-identical to the batch engine.

The contract behind the CI service-smoke ``cmp`` gate: feeding a
scenario's own workload through the observation wire format and the
:class:`ReplayPlant` must reproduce the batch run *byte for byte* — both
the decision JSONL stream and the deterministic summary JSON.
:class:`TestReplayInput` feeds the plant one kind of observation at a
time: arrivals and work that land in their bins, and the inputs it
refuses.
"""

import asyncio

import pytest

from repro.common.errors import ControlError
from repro.common.schema import dump_json, run_payload
from repro.scenario import Scenario, build_simulation, get_scenario, run_scenario
from repro.service import (
    AutonomicSupervisor,
    ReplayPlant,
    observation_line,
    parse_observation,
)
from repro.service.daemon import feed_lines
from repro.service.feed import END_LINE
from repro.sim.observers import DecisionRecorder


class ListFeed:
    """An in-process feed: the async face of a list of wire lines."""

    def __init__(self, lines):
        self._observations = [parse_observation(line) for line in lines]
        self._index = 0

    async def next(self):
        if self._index >= len(self._observations):
            return None
        observation = self._observations[self._index]
        self._index += 1
        return observation

    async def close(self):
        pass


def batch_artifacts(scenario):
    recorder = DecisionRecorder()
    result = run_scenario(scenario, observers=(recorder,))
    summary = dump_json(run_payload(scenario.name, result.summary()))
    return recorder.lines(), summary


def replay_artifacts(scenario):
    plant = ReplayPlant(
        build_simulation(scenario), ListFeed(list(feed_lines(scenario)))
    )
    supervisor = AutonomicSupervisor(scenario, plant)
    result = asyncio.run(supervisor.run())
    assert result is not None, "replay ended short of the horizon"
    assert supervisor.state == "finished"
    summary = dump_json(run_payload(scenario.name, result.summary()))
    return supervisor.decision_lines(), summary


@pytest.mark.parametrize(
    "name, samples",
    [
        ("paper/fig4-module4", 12),
        ("paper/fig6-cluster16", 8),
    ],
)
def test_replay_is_bit_identical_to_batch(name, samples, tmp_path, monkeypatch):
    from repro.maps.cache import CACHE_ENV_VAR

    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))  # train maps once
    scenario = get_scenario(name, samples=samples)
    batch_lines, batch_summary = batch_artifacts(scenario)
    replay_lines, replay_summary = replay_artifacts(scenario)
    assert batch_lines, "batch run produced no decisions"
    assert replay_lines == batch_lines
    assert replay_summary == batch_summary


def test_out_of_order_feed_is_rejected():
    scenario = get_scenario("paper/fig4-module4", samples=4)
    lines = list(feed_lines(scenario))
    lines[0], lines[1] = lines[1], lines[0]
    assert parse_observation(lines[0]).step == 1  # genuinely swapped
    plant = ReplayPlant(build_simulation(scenario), ListFeed(lines))
    supervisor = AutonomicSupervisor(scenario, plant)
    with pytest.raises(ControlError, match="out of order"):
        asyncio.run(supervisor.run())


def _baseline_plant(lines, builder=None, samples=2):
    """A replay plant over a baseline run (no maps to train)."""
    builder = builder or Scenario.module(m=4).workload("synthetic", samples=samples)
    scenario = builder.baseline("threshold-dvfs").build()
    plant = ReplayPlant(build_simulation(scenario), ListFeed(lines))
    plant.bind()
    return plant


def _advance(plant, times=1):
    async def run():
        return [await plant.advance() for _ in range(times)]

    return asyncio.run(run())


class TestReplayInput:
    """What the replay plant does with each observation it is fed."""

    def test_fed_arrivals_replace_the_scenario_bin(self):
        plant = _baseline_plant([observation_line(0, 4321.5)])
        (event,) = _advance(plant)
        assert event is not None
        assert plant.simulation.trace.counts[0] == 4321.5
        assert plant.steps_taken == 1

    def test_a_gap_in_the_steps_is_rejected_before_stepping(self):
        plant = _baseline_plant([observation_line(0, 1.0), observation_line(2, 1.0)])
        _advance(plant)
        with pytest.raises(ControlError, match="expected step 1, got step 2"):
            _advance(plant)
        assert plant.steps_taken == 1

    def test_work_for_a_run_without_a_work_series_is_rejected(self):
        # A cluster run on a wc98 trace serves at a constant mean work.
        plant = _baseline_plant(
            [observation_line(0, 10.0, work=0.02)],
            builder=Scenario.cluster(p=4).workload("wc98", samples=2),
        )
        with pytest.raises(ControlError, match="no work series") as caught:
            _advance(plant)
        assert "\n" not in str(caught.value)
        assert plant.steps_taken == 0

    def test_fed_work_replaces_the_module_work_bin(self):
        plant = _baseline_plant([observation_line(0, 10.0, work=0.02)])
        assert plant.simulation.work_series[0] != 0.02
        _advance(plant)
        assert plant.simulation.work_series[0] == 0.02

    def test_a_feed_ending_early_leaves_the_run_unfinished(self):
        plant = _baseline_plant([observation_line(0, 1.0), END_LINE])
        first, second = _advance(plant, times=2)
        assert first is not None and second is None
        assert plant.steps_taken == 1 and not plant.finished

    def test_a_finished_run_reads_no_further_observation(self):
        plant = _baseline_plant([observation_line(k, 1.0) for k in range(9)], samples=2)
        assert plant.total_steps == 8
        events = _advance(plant, times=9)
        assert events[-1] is None and all(e is not None for e in events[:-1])
        assert plant.finished
        assert plant.feed._index == 8  # the ninth observation stays unread
