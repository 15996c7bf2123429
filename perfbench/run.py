"""The repository benchmark: one workload, end to end or layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cluster16 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time, control
periods per second, the time of the ``step()`` call that opens each
control period (p50/p99), and peak RSS. Timings are in calibrated
seconds: wall time scaled by a fixed kernel timed between chunks of
stepping, so that the host's swings in speed cancel (see
``bench_calibration``); the wall figures are printed too. ``--trace 1`` runs the
workload once untraced and once with every layer's public entry points
wrapped (``bench_spans.LAYERS``), each in its own process, and prints
the per-layer counts and self times plus the tracing overhead.

Every run's decisions are checked period by period against the
committed reference in ``perfbench/reference`` (see
``bench_decisions``). The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people. Each result is also appended, with a host
fingerprint, to ``.bench_build/perfbench/results.jsonl``.

The load is a closed loop with a single caller: one process steps the
public run protocol back to back, with the engine options a bare
``repro run <scenario>`` resolves. Set-up time is measured in fresh
interpreters, so it covers imports, trace generation and map training,
as a bare ``repro run`` pays them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import bench_calibration as calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: A run must finish within this many seconds, set-up included.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    scenario: str
    #: Control periods per timed chunk; a calibration sample follows
    #: each chunk (see ``bench_calibration``). About 0.4 s of stepping.
    chunk_periods: int
    #: Extra fresh-interpreter set-ups per run; set-up time is the median
    #: over these and the measured run's own set-up.
    setup_probes: int
    #: Decision samples a run needs at least, whatever ``--seconds``
    #: says; 1000 leave ten beyond p99.
    min_periods: int = 1000


WORKLOADS = {
    # The paper's own §5.2 evaluation: 16 computers in 4 modules under
    # the WC'98 day with the full L2/L1/L0 hierarchy, maps trained cold
    # in set-up. The only workload where the L2 solve and map training
    # do real work. Cost per period follows the load, so every pass
    # covers the whole 600-period day; three of them steady p99, whose
    # heavy periods vary by up to 1.5x from pass to pass. Set-up trains
    # maps (5-10 s), so one extra set-up probe keeps a run in budget.
    "paper-cluster16": Workload(
        "paper/fig6-cluster16", chunk_periods=10, setup_probes=1, min_periods=1800
    ),
    # Same cluster and trace under threshold-DVFS baselines: no maps,
    # no L2, no lookahead, no L0. Time goes to the plant fluid step,
    # forecasting, observer fan-out and engine bookkeeping, so a
    # controller optimisation should not move it. Its set-up is
    # sub-second and mostly imports, so noisy: seven set-ups per run.
    "baseline-cluster16": Workload(
        "cluster-baseline-showdown", chunk_periods=100, setup_probes=6
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "periods_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "scenario.self_s": "s",
    "maps.self_s": "s",
    "maps.trainings": "count",
    "l2.calls": "count",
    "l2.self_s": "s",
    "l2.states_per_call": "states",
    "l1.calls": "count",
    "l1.self_s": "s",
    "l1.states_per_call": "states",
    "l0.calls": "count",
    "l0.self_s": "s",
    "l0.states_per_call": "states",
    "baselines.calls": "count",
    "baselines.self_s": "s",
    "forecast.calls": "count",
    "forecast.self_s": "s",
    "plant.calls": "count",
    "plant.self_s": "s",
    "observers.calls": "count",
    "observers.self_s": "s",
    "runner.calls": "count",
    "runner.self_s": "s",
    "engine.self_s": "s",
    "trace.overhead": "ratio",
    "trace.stepping_s": "s",
    "trace.accounted": "ratio",
}


class BenchmarkError(Exception):
    """A run that cannot produce a trustworthy result."""


def host_fingerprint() -> dict:
    model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


class ChildRunner:
    """Spawns measured processes within one run's time budget."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # Maps train cold in set-up, as a bare `repro run` trains them.
        env.pop("REPRO_MAP_CACHE", None)
        self.env = env

    def __call__(self, mode: str, **extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("run budget exhausted")
        config = {
            "mode": mode,
            "workload": self.workload,
            "scenario": self.spec.scenario,
            "seed": self.seed,
            "src": str(SRC),
            "chunk_periods": self.spec.chunk_periods,
            **extra,
        }
        config["spawned"] = time.monotonic()
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "bench_child.py"), json.dumps(config)],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} process exceeded the run budget") from exc
        if completed.returncode != 0:
            raise BenchmarkError(
                f"{mode} process failed ({completed.returncode}): "
                + completed.stderr.strip()[-2000:]
            )
        return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(child: ChildRunner, seconds: float) -> "tuple[dict, dict]":
    """End-to-end metrics of one run (untraced).

    Set-ups are too short to carry their own calibration samples; they
    are scaled by the median of the run's, which span its stepping.
    """
    setups = [child("setup")["setup_s"] for _ in range(child.spec.setup_probes)]
    main = child("run", seconds=seconds, min_periods=child.spec.min_periods)
    setups.append(main["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups)
        * calibration.REFERENCE_S
        / main["calibration_s"],
        "periods_per_s": main["periods"] / main["calibrated_stepping_s"],
        "decision_p50_ms": main["decision_p50_ms"],
        "decision_p99_ms": main["decision_p99_ms"],
        "peak_rss_mib": main["peak_rss_mib"],
    }
    notes = {
        "wall": {
            "setup_s": statistics.median(setups),
            "periods_per_s": main["periods"] / main["stepping_s"],
            "decision_p50_ms": main["wall_decision_p50_ms"],
        },
        "setup_samples": setups,
        "decision_samples": main["decision_samples"],
        "passes": main["passes"],
        "periods": main["periods"],
        "kernel": main["kernel"],
        "execution": main["execution"],
        "checked_against": main["checked_against"],
    }
    return metrics, {"runs": [main], **notes}


def trace(child: ChildRunner) -> "tuple[dict, dict]":
    """Per-layer metrics: one untraced and one traced pass, own processes."""
    plain = child("run", seconds=0, min_periods=0)
    spans_out = WORK / "spans" / f"{child.workload}-seed{child.seed}.jsonl"
    traced = child("trace", spans_out=str(spans_out))
    layers = traced["layers"]
    metrics: dict = {}
    absent = {}
    for name, row in layers.items():
        if name == "trace":
            continue
        for key in ("calls", "self_s", "states_per_call"):
            metric = f"{name}.{key}"
            if metric in PER_LAYER_UNITS:
                metrics[metric] = row.get(key, 0)
        if row["absent"]:
            absent[name] = row["absent"]
        elif row["missing"]:
            print(f"warning: {name} entry points not found: {', '.join(row['missing'])}")
    metrics["maps.trainings"] = traced["maps_trained"]
    metrics["trace.overhead"] = (
        traced["calibrated_stepping_s"] / plain["calibrated_stepping_s"]
    )
    metrics["trace.stepping_s"] = traced["stepping_s"]
    metrics["trace.accounted"] = layers["trace"]["accounted"]
    notes = {
        "absent": absent,
        "spans": str(spans_out.relative_to(ROOT)),
        "kernel": traced["kernel"],
        "execution": traced["execution"],
        "checked_against": traced["checked_against"],
        "step_layer_self_s": layers["trace"]["step_layer_self_s"],
        "step_root_s": layers["trace"]["step_root_s"],
    }
    return metrics, {"runs": [plain, traced], **notes}


def report(workload: str, seed: int, tracing: bool, metrics: dict, notes: dict) -> dict:
    units = PER_LAYER_UNITS if tracing else END_TO_END_UNITS
    runs = notes["runs"]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    host = host_fingerprint()
    print(f"workload {workload} · seed {seed} · trace {int(tracing)}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"engine: kernel={notes['kernel']} execution={notes['execution']} "
        "(the scenario's defaults)"
    )
    for name, unit in units.items():
        value = metrics[name]
        absent = notes.get("absent", {}).get(name.split(".")[0])
        suffix = f"   [absent: {absent}]" if absent else ""
        print(f"  {name:<22} {value:>14.6g} {unit}{suffix}")
    if tracing:
        print(
            f"  stepping-layer self times sum to {notes['step_layer_self_s']:.4f} s "
            f"of {notes['step_root_s']:.4f} s in engine steps; spans in {notes['spans']}"
        )
    else:
        print(
            f"  decision samples: {notes['decision_samples']} "
            f"({notes['passes']} passes, {notes['periods']} control periods)"
        )
        wall = notes["wall"]
        print(
            f"  timings above are in calibrated seconds; wall: setup_s "
            f"{wall['setup_s']:.4g} s, periods_per_s {wall['periods_per_s']:.4g} 1/s, "
            f"decision_p50_ms {wall['decision_p50_ms']:.4g} ms"
        )
    if notes["checked_against"] == "reference":
        print(f"  failed_fraction        {failed / attempted:>14.6g} ({failed}/{attempted})")
    else:
        print(
            f"  failed_fraction        unchecked (no reference for seed {seed}); "
            f"passes agree on {attempted - failed}/{attempted} periods"
        )
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(tracing),
        "host": host,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        **notes,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    child = ChildRunner(args.workload, args.seed, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.trace:
            metrics, notes = trace(child)
        else:
            metrics, notes = measure(child, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, bool(args.trace), metrics, notes)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
