"""Observers and recorder storage, driven by hand."""

import io

import numpy as np

from repro.sim.observers import (
    ClusterRecorder,
    L1DecisionEvent,
    L2DecisionEvent,
    PeriodEvent,
    ProgressObserver,
    SeriesBuffer,
    StreamStats,
)


def _period(k, arrivals):
    return PeriodEvent(period=k, arrivals=arrivals)


class TestProgressObserver:
    def test_reports_every_nth_period_with_its_arrivals(self):
        stream = io.StringIO()
        observer = ProgressObserver(every=2, stream=stream)
        for k, arrivals in enumerate([10.0, 2500.4, 30.0, 4000.6, 50.0]):
            observer.on_period_end(_period(k, arrivals))
        assert stream.getvalue().splitlines() == [
            "[repro] period 2: 2500 arrivals in the last period",
            "[repro] period 4: 4001 arrivals in the last period",
        ]

    def test_an_interval_below_one_reports_every_period(self):
        stream = io.StringIO()
        observer = ProgressObserver(every=0, stream=stream)
        assert observer.every == 1
        for k in range(3):
            observer.on_period_end(_period(k, 1.0))
        assert len(stream.getvalue().splitlines()) == 3

    def test_writes_to_stderr_by_default(self, capsys):
        observer = ProgressObserver(every=1)
        observer.on_period_end(_period(0, 7.0))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "[repro] period 1: 7 arrivals in the last period\n"


def _l1(k, module, alpha):
    alpha = np.asarray(alpha, dtype=float)
    return L1DecisionEvent(
        period=k, module=module, alpha=alpha,
        gamma=np.full(alpha.size, 1.0 / alpha.size), prediction=0.0,
    )


def _drive(recorder, periods):
    for k in range(periods):
        recorder.on_l2_decision(
            L2DecisionEvent(
                period=k, gamma=np.array([0.25 + 0.1 * k, 0.75 - 0.1 * k]),
                prediction=100.0 * k,
            )
        )
        recorder.on_l1_decision(_l1(k, 0, [1, 1, 0, 0]))
        recorder.on_l1_decision(_l1(k, 1, [1, 1, 1, k % 2]))
        recorder.on_period_end(_period(k, 10.0 * k))


class TestClusterRecorder:
    def test_records_each_periods_split_forecast_machines_and_arrivals(self):
        recorder = ClusterRecorder(periods=3, module_count=2)
        _drive(recorder, 3)
        assert np.array_equal(recorder.global_predictions, [0.0, 100.0, 200.0])
        assert np.allclose(
            recorder.gamma_history, [[0.25, 0.75], [0.35, 0.65], [0.45, 0.55]]
        )
        assert np.array_equal(recorder.per_module_on, [[2, 3], [2, 4], [2, 3]])
        assert np.array_equal(recorder.global_arrivals, [0.0, 10.0, 20.0])

    def test_a_window_keeps_the_latest_periods_in_order(self):
        full = ClusterRecorder(periods=5, module_count=2)
        windowed = ClusterRecorder(periods=5, module_count=2, window=2)
        _drive(full, 5)
        _drive(windowed, 5)
        for name in ("global_arrivals", "global_predictions", "gamma_history",
                     "per_module_on"):
            assert np.array_equal(getattr(windowed, name), getattr(full, name)[-2:])


class TestSeriesBuffer:
    def test_without_a_window_it_is_the_whole_array(self):
        buffer = SeriesBuffer(4)
        for k in range(4):
            buffer.put(k, 10.0 * k)
        assert not buffer.wrapped
        assert buffer.view() is buffer.view()  # no copy
        assert buffer.view().tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_a_window_covering_the_horizon_does_not_wrap(self):
        buffer = SeriesBuffer(3, window=10)
        assert (buffer.capacity, buffer.wrapped) == (3, False)

    def test_a_ring_keeps_the_latest_window_in_order(self):
        buffer = SeriesBuffer(10, window=3, fill=np.nan)
        buffer.put(0, 0.0)
        buffer.put(1, 1.0)
        # Before the ring fills, only the written slots show.
        assert buffer.view().tolist() == [0.0, 1.0]
        for k in range(2, 7):
            buffer.put(k, float(k))
        assert buffer.view().tolist() == [4.0, 5.0, 6.0]

    def test_slot_writes_a_row_in_place(self):
        buffer = SeriesBuffer(6, window=4, tail=(2,))
        for k in range(6):
            row = buffer.slot(k)
            row[0], row[1] = k, 10 * k
        assert buffer.view().tolist() == [[2, 20], [3, 30], [4, 40], [5, 50]]


class TestStreamStatsFoldStep:
    def test_precomputed_rows_fold_like_observed_rows(self):
        rows = [[1.0, np.nan, 5.5], [np.nan, np.nan, np.nan], [4.5, 2.0, 3.0]]
        powers = [3.0, 1.5, 4.25]
        observed = StreamStats(target_response=4.0, step_seconds=30.0)
        folded = StreamStats(target_response=4.0, step_seconds=30.0)
        for row, power in zip(rows, powers):
            observed.observe_step(np.array(row), power)
            finite = np.array([v for v in row if not np.isnan(v)])
            folded.fold_step(
                float(finite.sum()) if finite.size else 0.0,
                int(finite.size),
                float(finite.max()) if finite.size else 0.0,
                int((finite > 4.0).sum()),
                power,
            )
        assert folded == observed
        assert (folded.response_count, folded.violation_count) == (5, 2)
        assert folded.energy == (3.0 + 1.5 + 4.25) * 30.0
