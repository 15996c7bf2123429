"""Tracked performance trajectory: measure, record, and gate regressions.

Every landed change can move three numbers that matter operationally:
control-period throughput (periods/sec), startup time (imports plus
controller-map training), and peak RSS. This harness measures them in a
fresh subprocess per sample, appends the result to a per-scenario
series file, and compares new measurements against the recorded history
under a regression budget.

Series files live in ``benchmarks/trajectory/BENCH_<scenario>.json``
and are append-only: each entry is one measurement on one host at one
commit, so the series reads as the repo's performance trajectory over
time. Wall-clock numbers vary across hosts — the check gate therefore
uses a generous multiplicative budget (default 1.8×) chosen to catch
structural regressions (an accidental O(n²), a hot-path allocation) and
ignore CI jitter.

Subcommands::

    measure  run a scenario in fresh subprocesses, print the entry JSON
    record   measure and append the entry to the series file
    check    measure and fail if throughput or memory blows the budget

The ``bench-trajectory`` CI job runs ``check`` for each tracked
scenario; ``benchmarks/test_perf_trajectory.py`` proves the gate fails
on an injected 2× slowdown.
"""

from __future__ import annotations

import argparse
import datetime
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

TRAJECTORY_DIR = Path(__file__).parent / "trajectory"

#: Scenarios tracked by CI: one module-level, one cluster-level run.
TRACKED = {
    "paper/fig4-module4": 200,
    "cluster-baseline-showdown": 400,
}

#: Throughput budget: fail when measured periods/sec times this factor
#: still falls short of the best recorded baseline (a ~2× slowdown
#: fails; host jitter does not).
DEFAULT_BUDGET = 1.8

#: Memory budget: fail when peak RSS exceeds the smallest recorded
#: baseline by more than this factor.
DEFAULT_RSS_BUDGET = 2.0


def series_path(
    scenario: str,
    directory: "Path | None" = None,
    kernel: str = "scalar",
) -> Path:
    slug = scenario.replace("/", "-")
    if kernel != "scalar":
        # Kernels have different cost structures; comparing a vector
        # measurement against the scalar history (or vice versa) would
        # make the gate meaningless, so each kernel gets its own series.
        slug = f"{slug}--{kernel}"
    return (directory or TRAJECTORY_DIR) / f"BENCH_{slug}.json"


def load_series(path: Path) -> "list[dict]":
    if not path.exists():
        return []
    return json.loads(path.read_text())


def append_entry(path: Path, entry: dict) -> "list[dict]":
    series = load_series(path)
    series.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(series, indent=2, sort_keys=True) + "\n")
    return series


# ----------------------------------------------------------------------
# Measurement (fresh subprocess per sample)
# ----------------------------------------------------------------------


def _child(scenario: str, samples: int, kernel: str = "scalar") -> int:
    """Run one measurement in this (fresh) interpreter; print JSON."""
    t0 = time.perf_counter()
    from repro.scenario import build_simulation, get_scenario

    spec = get_scenario(scenario, samples=samples)
    # The kernel is always pinned: a series records the kernel it names,
    # whatever the scenario default is.
    spec = spec.with_overrides(**{"control.kernel": kernel})
    simulation = build_simulation(spec)
    startup_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    simulation.run()
    run_seconds = time.perf_counter() - t1

    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "periods": samples,
                "startup_seconds": round(startup_seconds, 4),
                "run_seconds": round(run_seconds, 4),
                "periods_per_sec": round(samples / run_seconds, 2),
                "peak_rss_mib": round(ru_maxrss / 1024.0, 2),  # Linux: KiB
            }
        )
    )
    return 0


def measure(
    scenario: str,
    samples: int,
    repeats: int = 2,
    kernel: str = "scalar",
) -> dict:
    """Best-of-``repeats`` measurement, each in a fresh subprocess.

    Best-of (not mean) is the right statistic for a regression gate:
    noise only ever slows a run down, so the fastest repeat is the
    closest estimate of the code's true cost on this host.
    """
    runs = []
    for _ in range(repeats):
        result = subprocess.run(
            [
                sys.executable,
                __file__,
                "child",
                "--scenario",
                scenario,
                "--samples",
                str(samples),
                "--kernel",
                kernel,
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(result.stdout.splitlines()[-1]))
    best = max(runs, key=lambda run: run["periods_per_sec"])
    entry = {
        "scenario": scenario,
        "samples": samples,
        "repeats": repeats,
        "kernel": kernel,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        **best,
        "startup_seconds": min(run["startup_seconds"] for run in runs),
        "peak_rss_mib": min(run["peak_rss_mib"] for run in runs),
    }
    return entry


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------


def check_entry(
    entry: dict,
    baseline_entries: "list[dict]",
    budget: float = DEFAULT_BUDGET,
    rss_budget: float = DEFAULT_RSS_BUDGET,
) -> "tuple[bool, list[str]]":
    """Gate one measurement against the recorded series.

    Returns ``(ok, messages)``. Throughput fails when the measurement
    times ``budget`` still undershoots the best recorded periods/sec;
    memory fails when peak RSS exceeds the smallest recorded baseline
    by more than ``rss_budget``. An empty series passes (first record).
    """
    messages = []
    if not baseline_entries:
        messages.append("no baseline series; first measurement passes")
        return True, messages
    baseline_pps = max(e["periods_per_sec"] for e in baseline_entries)
    baseline_rss = min(e["peak_rss_mib"] for e in baseline_entries)
    ok = True
    pps = entry["periods_per_sec"]
    if pps * budget < baseline_pps:
        ok = False
        messages.append(
            f"FAIL throughput: {pps:.2f} periods/sec x budget {budget} "
            f"< baseline {baseline_pps:.2f}"
        )
    else:
        messages.append(
            f"ok throughput: {pps:.2f} periods/sec "
            f"(baseline {baseline_pps:.2f}, budget {budget}x)"
        )
    rss = entry["peak_rss_mib"]
    if rss > baseline_rss * rss_budget:
        ok = False
        messages.append(
            f"FAIL memory: peak RSS {rss:.2f} MiB "
            f"> baseline {baseline_rss:.2f} MiB x budget {rss_budget}"
        )
    else:
        messages.append(
            f"ok memory: peak RSS {rss:.2f} MiB "
            f"(baseline {baseline_rss:.2f} MiB, budget {rss_budget}x)"
        )
    return ok, messages


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--scenario", default="paper/fig4-module4")
        sub.add_argument("--samples", type=int, default=None)
        sub.add_argument(
            "--kernel", choices=("scalar", "vector"), default="scalar"
        )
        return sub

    add("child", "internal: one measurement in this interpreter")
    measure_cmd = add("measure", "measure and print the entry JSON")
    record = add("record", "measure and append to the series file")
    check = add("check", "measure and gate against the recorded series")
    for sub in (measure_cmd, record, check):
        sub.add_argument("--repeats", type=int, default=2)
    for sub in (record, check):
        sub.add_argument(
            "--trajectory-dir", type=Path, default=TRAJECTORY_DIR
        )
    check.add_argument("--budget", type=float, default=DEFAULT_BUDGET)
    check.add_argument(
        "--rss-budget", type=float, default=DEFAULT_RSS_BUDGET
    )
    args = parser.parse_args(argv)

    samples = args.samples
    if samples is None:
        samples = TRACKED.get(args.scenario, 200)

    if args.command == "child":
        return _child(args.scenario, samples, kernel=args.kernel)

    entry = measure(
        args.scenario, samples, repeats=args.repeats, kernel=args.kernel
    )
    print(json.dumps(entry, indent=2, sort_keys=True))

    if args.command == "measure":
        return 0

    path = series_path(args.scenario, args.trajectory_dir, kernel=args.kernel)
    if args.command == "record":
        series = append_entry(path, entry)
        print(f"recorded entry {len(series)} -> {path}")
        return 0

    baseline = load_series(path)
    ok, messages = check_entry(
        entry, baseline, budget=args.budget, rss_budget=args.rss_budget
    )
    for message in messages:
        print(message)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
