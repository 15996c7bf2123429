"""Execute expanded sweeps on interchangeable backends.

:func:`run_sweep` is the imperative entry point: expand the sweep, skip
runs the store already holds, execute the rest on a
:class:`SerialBackend` or a :class:`ProcessPoolBackend`, and stream each
finished :class:`~repro.sim.results.RunSummary` into the JSONL store as
it completes. Workers receive the fully-resolved scenario payload (not a
registry name), so process pools need no registry state; results come
back in expansion order on every backend, which is what makes serial and
parallel stores byte-identical.

Runs that name a trained-map cache (``control.map_cache``) get their
abstraction maps warmed in the parent before any worker starts: each
distinct map content trains exactly once per campaign, and the workers
ship the artifacts in from disk instead of retraining per process —
the training cost of an N-run hierarchy sweep drops from O(N) to
O(distinct specs).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.common.errors import ConfigurationError
from repro.common.validation import require_positive_int
from repro.obs.registry import global_registry
from repro.scenario.spec import ScenarioSpec
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.store import ResultStore


def execute_scenario_payload(payload: dict) -> dict:
    """Worker entry point: run one resolved scenario, return its summary.

    Takes and returns plain dicts so it crosses process boundaries
    without importing any registry state on the far side.
    """
    from repro.scenario.runner import run_scenario

    scenario = ScenarioSpec.from_dict(payload)
    return run_scenario(scenario).summary().to_dict()


class SerialBackend:
    """Run every scenario in-process, one after the other."""

    workers = 1

    def map(self, payloads: "Iterable[dict]") -> "Iterator[dict]":
        for payload in payloads:
            yield execute_scenario_payload(payload)


class ProcessPoolBackend:
    """Fan scenarios out over a :class:`ProcessPoolExecutor`.

    ``map`` yields results in submission order (head-of-line blocking
    only), so the caller can stream rows to the store and still produce
    a file identical to a serial run.
    """

    def __init__(self, workers: int) -> None:
        if not isinstance(workers, int) or workers < 2:
            raise ConfigurationError(
                f"ProcessPoolBackend needs >= 2 workers, got {workers!r}"
            )
        self.workers = workers

    def map(self, payloads: "Iterable[dict]") -> "Iterator[dict]":
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            yield from pool.map(execute_scenario_payload, payloads, chunksize=1)


def make_backend(workers: int = 1) -> "SerialBackend | ProcessPoolBackend":
    """Pick the backend for a worker count (1 = serial)."""
    require_positive_int(workers, "workers")
    return SerialBackend() if workers == 1 else ProcessPoolBackend(workers)


def resolve_workers(workers: "int | None", run_count: int) -> int:
    """Effective pool width: ``None`` means ``min(cpu_count, run_count)``.

    A pool wider than the run count would only spawn idle processes, and
    wider than the host would only thrash it; explicit requests are kept
    as-is (the caller may know better than ``os.cpu_count``).
    """
    if workers is None:
        return max(1, min(os.cpu_count() or 1, run_count))
    return require_positive_int(workers, "workers")


@dataclass(frozen=True)
class SweepRunReport:
    """What one :func:`run_sweep` invocation did."""

    sweep: str
    total: int
    executed: int
    skipped: int
    store_dir: Path
    workers: int = 1

    def __str__(self) -> str:
        return (
            f"sweep {self.sweep or '(unnamed)'}: {self.total} runs, "
            f"{self.executed} executed, {self.skipped} already stored "
            f"({self.workers} worker{'' if self.workers == 1 else 's'}) "
            f"-> {self.store_dir}"
        )


def _resolve(sweep: "SweepSpec | str") -> SweepSpec:
    if isinstance(sweep, SweepSpec):
        return sweep
    if isinstance(sweep, str):
        from repro.sweep.registry import get_sweep

        return get_sweep(sweep)
    raise ConfigurationError(
        "run_sweep takes a SweepSpec or a registered sweep name, "
        f"got {type(sweep).__name__}"
    )


def _prewarm_map_caches(pending: "list[SweepPoint]") -> None:
    """Warm trained-map caches once in the parent, before any fan-out.

    Only runs that opted into a cache (``control.map_cache``, hierarchy
    mode) are warmed; each distinct map content trains once here and
    every worker — serial or pooled — then loads the artifact instead
    of retraining in its own process.
    """
    from repro.maps.cache import env_cache_dir
    from repro.scenario.runner import warm_scenario

    env_fallback = env_cache_dir()
    for point in pending:
        control = point.scenario.control
        # Mirror the run-time resolution chain exactly (control.map_cache
        # falling back to $REPRO_MAP_CACHE): any run that will read a
        # cache must find it warm.
        if not control.is_baseline and (control.map_cache or env_fallback):
            warm_scenario(point.scenario)


def run_sweep(
    sweep: "SweepSpec | str",
    out_dir: "Path | str",
    workers: "int | None" = None,
    samples: int | None = None,
    on_run: "Callable[[SweepPoint, dict], None] | None" = None,
    on_start: "Callable[[int, int, int], None] | None" = None,
) -> SweepRunReport:
    """Expand, execute, and store a sweep; resume-safe.

    ``workers=None`` sizes the pool to ``min(os.cpu_count(), pending
    run count)`` — the work actually left after store reconciliation,
    so a near-complete resume does not spin up idle processes — and the
    effective width is reported back on the :class:`SweepRunReport`.
    Runs whose ``run_id`` the store at ``out_dir`` already holds are
    skipped, so re-invoking after a crash (or topping up a finished
    campaign with an unchanged spec) only executes the missing rows.
    ``on_start`` is called once with ``(pending, total, workers)`` after
    the store is reconciled; ``on_run`` with each point and its metrics
    as rows land.
    """
    sweep = _resolve(sweep)
    points = sweep.expand(samples=samples)
    store = ResultStore(out_dir)
    done = store.prepare(sweep, samples=samples)
    pending = [point for point in points if point.run_id not in done]
    workers = resolve_workers(workers, max(1, len(pending)))
    backend = make_backend(workers)
    if on_start is not None:
        on_start(len(pending), len(points), workers)
    _prewarm_map_caches(pending)
    payloads = [point.scenario.to_dict() for point in pending]
    for point, summary in zip(pending, backend.map(payloads)):
        row = store.append(point, summary)
        if on_run is not None:
            on_run(point, row.metrics)
    registry = global_registry()
    registry.counter(
        "repro_sweep_campaigns_total", "Sweep campaigns executed."
    ).inc()
    registry.counter(
        "repro_sweep_runs_executed_total", "Sweep runs actually executed."
    ).inc(len(pending))
    registry.counter(
        "repro_sweep_runs_skipped_total",
        "Sweep runs skipped because the store already held them.",
    ).inc(len(points) - len(pending))
    return SweepRunReport(
        sweep=sweep.name,
        total=len(points),
        executed=len(pending),
        skipped=len(points) - len(pending),
        store_dir=store.directory,
        workers=workers,
    )
