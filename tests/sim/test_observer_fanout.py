"""The per-module fan-outs: :meth:`ObserverList.on_step` and ``on_l1_decision``.

Every engine path (module, scalar/vector cluster) hands
its step and L1 decision events to these methods, so their routing
contract is tested here on synthetic events, without a simulation: the
stock recorder of a module sees only that module, every other observer
sees everything, and precomputed row stats take the recorder's fast fold
only when they were reduced against the recorder's own SLA target.
"""

import numpy as np
import pytest

from repro.sim.observers import (
    L1DecisionEvent,
    L2DecisionEvent,
    ModuleRecorder,
    ObserverList,
    PeriodEvent,
    SimulationObserver,
    StepEvent,
)

SIZE = 3
TARGET = 4.0


def _event(step, module=0, responses=(1.0, 5.0, np.nan), power=120.0):
    return StepEvent(
        step=step,
        time=30.0 * step,
        module=module,
        arrivals=10.0 + step,
        frequencies=np.full(SIZE, 0.5 + 0.1 * step),
        responses=np.array(responses, dtype=float),
        queues=np.arange(SIZE, dtype=float) + step,
        power=power,
    )


def _row_stats(responses, target):
    """``(sum, count, max, violations)`` of a row's finite responses."""
    finite = responses[~np.isnan(responses)]
    return (
        float(finite.sum()),
        int(finite.size),
        float(finite.max()),
        int((finite > target).sum()),
    )


def _recorder(module=0, target=TARGET, steps=8):
    return ModuleRecorder(
        steps, SIZE, 2, module=module, target_response=target, step_seconds=30.0
    )


class _Log(SimulationObserver):
    """Appends ``(name, hook, payload)`` for every hook to a shared list."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_run_start(self, simulation):
        self.log.append((self.name, "run_start", simulation))

    def on_l1_decision(self, event):
        self.log.append((self.name, "l1", event.module))

    def on_l2_decision(self, event):
        self.log.append((self.name, "l2", event.period))

    def on_step(self, event):
        self.log.append((self.name, "step", (event.module, event.step)))

    def on_period_end(self, event):
        self.log.append((self.name, "period_end", event.period))

    def on_run_end(self, result):
        self.log.append((self.name, "run_end", result))


class _CountingRecorder(ModuleRecorder):
    def __init__(self, module=0):
        super().__init__(8, SIZE, 2, module=module, target_response=TARGET)
        self.seen = []

    def on_step(self, event):
        self.seen.append(event.module)
        super().on_step(event)


class TestRouting:
    def test_stock_recorder_gets_only_its_module(self):
        mine, other = _recorder(module=0), _recorder(module=1)
        sink = ObserverList((mine, other), target_response=TARGET)
        for step, module in enumerate((0, 1, 0, 1, 1)):
            sink.on_step(_event(step, module=module))
        assert mine.stream.steps_seen == 2
        assert other.stream.steps_seen == 3
        assert mine.power[:3].tolist() == [120.0, 0.0, 120.0]

    def test_recorder_subclass_gets_every_module(self):
        counter = _CountingRecorder(module=0)
        sink = ObserverList((counter,), target_response=TARGET)
        for step, module in enumerate((0, 1, 2, 0)):
            sink.on_step(_event(step, module=module))
        assert counter.seen == [0, 1, 2, 0]
        # Its own module filter still keeps only module 0 in its series.
        assert counter.stream.steps_seen == 2

    def test_observers_see_every_event_in_list_order(self):
        log = []
        sink = ObserverList((_Log("a", log), _Log("b", log)))
        sink.on_step(_event(0, module=0))
        sink.on_step(_event(0, module=1))
        assert log == [
            ("a", "step", (0, 0)),
            ("b", "step", (0, 0)),
            ("a", "step", (1, 0)),
            ("b", "step", (1, 0)),
        ]

    def test_noop_step_observers_keep_their_other_hooks(self):
        class PeriodsOnly(SimulationObserver):
            def __init__(self):
                self.periods = []

            def on_period_end(self, event):
                self.periods.append(event.period)

        log = []
        periods = PeriodsOnly()
        sink = ObserverList((SimulationObserver(), periods, _Log("a", log)))
        sink.on_step(_event(0))
        sink.on_period_end(PeriodEvent(period=0, arrivals=10.0))
        sink.on_step(_event(1))
        assert periods.periods == [0]
        assert [entry[1] for entry in log] == ["step", "period_end", "step"]

    def test_a_module_first_seen_late_is_routed(self):
        late = _recorder(module=2)
        sink = ObserverList((late,), target_response=TARGET)
        sink.on_step(_event(0, module=0))
        sink.on_step(_event(1, module=1))
        sink.on_step(_event(2, module=2))
        assert late.stream.steps_seen == 1
        assert late.power[2] == 120.0

    def test_other_hooks_reach_every_observer_in_order(self):
        log = []
        sink = ObserverList((_Log("a", log), _Log("b", log)))
        alpha = np.ones(SIZE, dtype=bool)
        gamma = np.full(SIZE, 1.0 / SIZE)
        sink.on_run_start("sim")
        sink.on_l2_decision(
            L2DecisionEvent(period=0, gamma=np.array([1.0]), prediction=5.0)
        )
        sink.on_l1_decision(
            L1DecisionEvent(
                period=0, module=3, alpha=alpha, gamma=gamma, prediction=5.0
            )
        )
        sink.on_period_end(PeriodEvent(period=0, arrivals=5.0))
        sink.on_run_end("result")
        assert log == [
            ("a", "run_start", "sim"),
            ("b", "run_start", "sim"),
            ("a", "l2", 0),
            ("b", "l2", 0),
            ("a", "l1", 3),
            ("b", "l1", 3),
            ("a", "period_end", 0),
            ("b", "period_end", 0),
            ("a", "run_end", "result"),
            ("b", "run_end", "result"),
        ]


def _l1_event(period, module=0, on=SIZE):
    alpha = np.arange(SIZE) < on
    return L1DecisionEvent(
        period=period,
        module=module,
        alpha=alpha,
        gamma=alpha / alpha.sum(),
        prediction=10.0 + period,
    )


class _CountingL1Recorder(ModuleRecorder):
    def __init__(self, module=0):
        super().__init__(8, SIZE, 4, module=module, target_response=TARGET)
        self.seen = []

    def on_l1_decision(self, event):
        self.seen.append(event.module)
        super().on_l1_decision(event)


class TestL1Routing:
    def test_stock_recorder_gets_only_its_module(self, monkeypatch):
        seen = {0: [], 1: []}
        mine, other = _recorder(module=0, steps=8), _recorder(module=1, steps=8)
        for recorder in (mine, other):
            original = recorder.on_l1_decision

            def spy(event, recorder=recorder, original=original):
                seen[recorder.module].append(event.module)
                original(event)

            monkeypatch.setattr(recorder, "on_l1_decision", spy)
        sink = ObserverList((mine, other), target_response=TARGET)
        for period, module in enumerate((0, 1, 0, 1)):
            sink.on_l1_decision(_l1_event(period // 2, module=module, on=module + 1))
        assert seen == {0: [0, 0], 1: [1, 1]}
        assert mine.computers_on.tolist() == [1.0, 1.0]
        assert other.computers_on.tolist() == [2.0, 2.0]
        assert mine.l1_predictions.tolist() == [10.0, 11.0]

    def test_recorder_subclass_gets_every_module(self):
        counter = _CountingL1Recorder(module=0)
        sink = ObserverList((counter,), target_response=TARGET)
        for period, module in enumerate((0, 1, 2, 0)):
            sink.on_l1_decision(_l1_event(period, module=module, on=2))
        assert counter.seen == [0, 1, 2, 0]
        # Its own module filter still keeps only module 0 in its series.
        assert counter.computers_on.tolist() == [2.0, 0.0, 0.0, 2.0]

    def test_observers_see_every_event_in_list_order(self):
        log = []
        recorder = _recorder(module=1)
        sink = ObserverList((_Log("a", log), recorder, _Log("b", log)))
        for module in (0, 1, 2):
            sink.on_l1_decision(_l1_event(0, module=module))
        assert log == [
            ("a", "l1", 0),
            ("b", "l1", 0),
            ("a", "l1", 1),
            ("b", "l1", 1),
            ("a", "l1", 2),
            ("b", "l1", 2),
        ]
        assert recorder.computers_on.tolist() == [3.0, 0.0]

    def test_noop_l1_observers_are_skipped(self):
        class Silent(SimulationObserver):
            pass

        class Raising(SimulationObserver):
            def on_l1_decision(self, event):
                raise RuntimeError(f"module {event.module}")

        log = []
        sink = ObserverList((Silent(), _Log("a", log)))
        sink.on_l1_decision(_l1_event(0, module=1))
        assert log == [("a", "l1", 1)]
        assert sink._l1_routes[1] == [sink.observers[1].on_l1_decision]
        with pytest.raises(RuntimeError, match="module 0"):
            ObserverList((Silent(), Raising())).on_l1_decision(_l1_event(0))

    def test_a_module_first_seen_late_is_routed(self):
        late = _recorder(module=2)
        sink = ObserverList((late,), target_response=TARGET)
        for module in (0, 1, 2):
            sink.on_l1_decision(_l1_event(1, module=module, on=1))
        assert late.computers_on.tolist() == [0.0, 1.0]


class TestRowStats:
    def test_matching_target_takes_the_fast_fold(self, monkeypatch):
        recorder = _recorder()
        calls = []
        monkeypatch.setattr(
            recorder, "on_step_fast", lambda event, stats: calls.append(stats)
        )
        sink = ObserverList((recorder,), target_response=TARGET)
        event = _event(0)
        stats = _row_stats(event.responses, TARGET)
        sink.on_step(event, stats)
        assert calls == [stats]
        assert recorder.stream.steps_seen == 0  # the scanning path never ran

    def test_mismatched_target_rescans_the_row(self):
        recorder = _recorder(target=0.5)
        sink = ObserverList((recorder,), target_response=TARGET)
        # Stats reduced against another target (and deliberately wrong):
        # the recorder must ignore them and scan the row itself.
        sink.on_step(_event(0), (0.0, 0, 0.0, 99))
        assert recorder.stream.response_count == 2
        assert recorder.stream.response_sum == 6.0
        assert recorder.stream.violation_count == 2

    def test_missing_row_stats_rescans_the_row(self):
        recorder = _recorder()
        sink = ObserverList((recorder,), target_response=TARGET)
        sink.on_step(_event(0))
        assert recorder.stream.response_count == 2
        assert recorder.stream.response_max == 5.0
        assert recorder.stream.violation_count == 1

    @pytest.mark.parametrize("target", [TARGET, None])
    def test_fast_and_scanning_folds_agree_bit_for_bit(self, target):
        rng = np.random.default_rng(7)
        fast, scanned = _recorder(target=target), _recorder(target=target)
        fast_sink = ObserverList((fast,), target_response=target)
        scan_sink = ObserverList((scanned,), target_response=target)
        for step in range(8):
            responses = rng.uniform(0.1, 9.0, SIZE)
            responses[rng.random(SIZE) < 0.3] = np.nan
            if np.isnan(responses).all():
                responses[0] = 2.5
            event = _event(step, responses=responses, power=float(100 + step))
            fast_sink.on_step(event, _row_stats(responses, target or 0.0))
            scan_sink.on_step(event)
        assert fast.stream == scanned.stream
        for name in ("arrivals", "frequencies", "responses", "queues", "power"):
            assert np.array_equal(
                getattr(fast, name), getattr(scanned, name), equal_nan=True
            ), name
