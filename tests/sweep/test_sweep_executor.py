"""Sweep execution: backends, byte-identical output, resume semantics."""

import pytest

from repro.common import ConfigurationError
from repro.scenario import Scenario
from repro.sweep import (
    GridAxis,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    SweepSpec,
    make_backend,
    resolve_workers,
    run_sweep,
    write_report,
)


def _fast_sweep() -> SweepSpec:
    """Baseline-only (no map training): cheap enough to run many times."""
    return SweepSpec(
        name="fast",
        base=(
            Scenario.module(m=4)
            .workload("synthetic", samples=8)
            .baseline("threshold-dvfs")
            .build()
        ),
        axes=(
            GridAxis(field="plant.m", values=(4, 6)),
            GridAxis(field="seed", values=(0, 1)),
        ),
    )


class TestBackends:
    def test_make_backend(self):
        assert isinstance(make_backend(1), SerialBackend)
        assert isinstance(make_backend(3), ProcessPoolBackend)

    def test_bad_worker_counts_rejected(self):
        for bogus in (0, -1, 1.5, True):
            with pytest.raises(ConfigurationError):
                make_backend(bogus)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(1)


class TestRunSweep:
    def test_serial_executes_all_runs(self, tmp_path):
        report = run_sweep(_fast_sweep(), tmp_path / "out")
        assert (report.total, report.executed, report.skipped) == (4, 4, 0)
        rows = ResultStore(tmp_path / "out").rows()
        assert [row.index for row in rows] == [0, 1, 2, 3]
        assert all(row.metrics["total_energy"] > 0 for row in rows)

    def test_on_run_callback_streams_in_order(self, tmp_path):
        seen = []
        run_sweep(
            _fast_sweep(),
            tmp_path,
            on_run=lambda point, metrics: seen.append(point.index),
        )
        assert seen == [0, 1, 2, 3]

    def test_registered_sweep_by_name(self, tmp_path):
        report = run_sweep("module-seeds", tmp_path, samples=6)
        assert report.sweep == "module-seeds"
        assert report.total == 8

    def test_rejects_non_sweep(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_sweep(42, tmp_path)


class TestParallelEquivalence:
    def test_parallel_store_and_reports_byte_identical(self, tmp_path):
        """The acceptance bar: workers=2 output == serial output, byte
        for byte, on the registered 16-run example sweep."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_sweep("module-showdown", serial_dir, workers=1, samples=6)
        parallel = run_sweep(
            "module-showdown", parallel_dir, workers=2, samples=6
        )
        assert serial.total == parallel.total == 16
        write_report(serial_dir)
        write_report(parallel_dir)
        for name in ("runs.jsonl", "report.txt", "report.json"):
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes(), f"{name} differs between backends"


class TestResume:
    def test_resume_skips_completed_runs(self, tmp_path):
        sweep = _fast_sweep()
        points = sweep.expand()
        store = ResultStore(tmp_path)
        store.prepare(sweep)
        # Simulate a crash after two finished runs...
        executed = []
        from repro.sweep.executor import execute_scenario_payload

        for point in points[:2]:
            store.append(point, execute_scenario_payload(point.scenario.to_dict()))
        # ...then re-invoke: only the missing half runs.
        report = run_sweep(
            sweep, tmp_path, on_run=lambda point, _: executed.append(point.index)
        )
        assert (report.total, report.executed, report.skipped) == (4, 2, 2)
        assert executed == [2, 3]
        assert [row.index for row in ResultStore(tmp_path).rows()] == [0, 1, 2, 3]

    def test_on_start_reports_pending_and_total(self, tmp_path):
        sweep = _fast_sweep()
        seen = []
        run_sweep(
            sweep, tmp_path,
            on_start=lambda pending, total, workers: seen.append((pending, total)),
        )
        run_sweep(
            sweep, tmp_path,
            on_start=lambda pending, total, workers: seen.append((pending, total)),
        )
        assert seen == [(4, 4), (0, 4)]

    def test_torn_store_resumes_to_byte_identical_result(self, tmp_path):
        """A crash mid-write leaves a partial trailing line; resuming
        must repair it and converge on the uninterrupted store."""
        sweep = _fast_sweep()
        clean_dir, torn_dir = tmp_path / "clean", tmp_path / "torn"
        run_sweep(sweep, clean_dir)
        store = ResultStore(torn_dir)
        store.prepare(sweep)
        from repro.sweep.executor import execute_scenario_payload

        points = sweep.expand()
        for point in points[:2]:
            store.append(point, execute_scenario_payload(point.scenario.to_dict()))
        with open(store.path, "a") as handle:
            handle.write('{"kind": "run", "index": 2, "ru')  # torn by a crash
        report = run_sweep(sweep, torn_dir)
        assert (report.executed, report.skipped) == (2, 2)
        assert (torn_dir / "runs.jsonl").read_bytes() == (
            clean_dir / "runs.jsonl"
        ).read_bytes()

    def test_completed_store_is_a_no_op(self, tmp_path):
        sweep = _fast_sweep()
        run_sweep(sweep, tmp_path)
        before = ResultStore(tmp_path).path.read_bytes()
        report = run_sweep(sweep, tmp_path)
        assert (report.executed, report.skipped) == (0, 4)
        assert ResultStore(tmp_path).path.read_bytes() == before

    def test_resumed_store_aggregates_identically(self, tmp_path):
        """A crash-resumed campaign reports exactly like an uninterrupted
        one: the report is a function of the row set, not the history."""
        sweep = _fast_sweep()
        clean_dir, resumed_dir = tmp_path / "clean", tmp_path / "resumed"
        run_sweep(sweep, clean_dir)
        store = ResultStore(resumed_dir)
        store.prepare(sweep)
        from repro.sweep.executor import execute_scenario_payload

        points = sweep.expand()
        for point in (points[1],):  # out-of-order partial progress
            store.append(point, execute_scenario_payload(point.scenario.to_dict()))
        run_sweep(sweep, resumed_dir)
        write_report(clean_dir)
        write_report(resumed_dir)
        for name in ("report.txt", "report.json"):
            assert (clean_dir / name).read_bytes() == (
                resumed_dir / name
            ).read_bytes()


class TestResolveWorkers:
    def test_none_caps_at_cpu_and_run_count(self):
        import os

        cpus = os.cpu_count() or 1
        assert resolve_workers(None, 1000) == max(1, min(cpus, 1000))
        assert resolve_workers(None, 1) == 1

    def test_explicit_request_kept(self):
        assert resolve_workers(3, 2) == 3

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0, 4)
        with pytest.raises(ConfigurationError):
            resolve_workers(True, 4)

    def test_report_carries_effective_workers(self, tmp_path):
        report = run_sweep(
            "module-seeds", tmp_path / "store", workers=1, samples=6
        )
        assert report.workers == 1
        assert "(1 worker)" in str(report)

    def test_resume_sizes_pool_to_pending(self, tmp_path):
        """A finished store resumes with a serial pool, not cpu_count."""
        run_sweep("module-seeds", tmp_path / "store", workers=1, samples=6)
        report = run_sweep(
            "module-seeds", tmp_path / "store", workers=None, samples=6
        )
        assert report.executed == 0
        assert report.workers == 1
