"""Parallel scenario sweeps: declare a family of runs, execute, aggregate.

The paper's results are families of runs — controller variants crossed
with seeds, module sizes, and fault patterns. This package turns such a
family into one declarative object and three verbs:

* **Declare** (:mod:`~repro.sweep.spec`) — a :class:`SweepSpec` names a
  base scenario and a tuple of axes (:class:`GridAxis`,
  :class:`ListAxis`, :class:`RandomAxis`) over scenario fields; it
  expands deterministically and round-trips through JSON.
* **Execute** (:mod:`~repro.sweep.executor`) — :func:`run_sweep` fans
  the expanded runs out over a serial or process-pool backend and
  streams each :class:`~repro.sim.results.RunSummary` into a JSONL
  :class:`~repro.sweep.store.ResultStore`; re-invocation resumes,
  skipping stored runs. Serial and parallel backends produce
  byte-identical stores.
* **Aggregate** (:mod:`~repro.sweep.aggregate`) — group-by over the
  swept axes with count/mean/std/min/max per metric, rendered as an
  aligned text table and a machine-readable JSON report.

Quick start::

    from repro.sweep import GridAxis, SweepSpec, run_sweep, write_report

    sweep = SweepSpec(
        base="paper/fig4-module4",
        axes=(
            GridAxis(field="control.mode", values=("hierarchy", "threshold-dvfs")),
            GridAxis(field="seed", values=(0, 1, 2)),
        ),
    )
    run_sweep(sweep, "out/showdown", workers=4, samples=120)
    print(write_report("out/showdown"))

The same campaign from the shell::

    repro sweep run module-showdown --workers 4 --samples 120 --out out/showdown
    repro sweep report out/showdown
"""

from repro.sweep.aggregate import (
    AggregateGroup,
    MetricAggregate,
    aggregate_rows,
    render_table,
    report_payload,
    write_report,
)
from repro.sweep.executor import (
    ProcessPoolBackend,
    SerialBackend,
    SweepRunReport,
    make_backend,
    resolve_workers,
    run_sweep,
)
from repro.sweep.registry import (
    RegisteredSweep,
    get_sweep,
    list_sweeps,
    register_sweep,
)
from repro.sweep.spec import (
    GridAxis,
    ListAxis,
    RandomAxis,
    SweepPoint,
    SweepSpec,
)
from repro.sweep.store import SUMMARY_METRICS, ResultStore, RunRow

__all__ = [
    "AggregateGroup",
    "GridAxis",
    "ListAxis",
    "MetricAggregate",
    "ProcessPoolBackend",
    "RandomAxis",
    "RegisteredSweep",
    "ResultStore",
    "RunRow",
    "SUMMARY_METRICS",
    "SerialBackend",
    "SweepPoint",
    "SweepRunReport",
    "SweepSpec",
    "aggregate_rows",
    "get_sweep",
    "list_sweeps",
    "make_backend",
    "register_sweep",
    "render_table",
    "resolve_workers",
    "report_payload",
    "run_sweep",
    "write_report",
]
