"""The performance gate: the repo benchmark on parent and change, judged by its bounds.

Usage (from the root of the change's checkout)::

    git worktree add /tmp/parent HEAD^1
    python benchmarks/perf_gate.py measure /tmp/parent . /tmp/perf-records.json
    python benchmarks/perf_gate.py judge /tmp/perf-records.json

``measure PARENT CHANGE RECORDS`` runs ``PAIRS`` pairs for every workload
of the change tree's ``BENCHMARK.json``. Pair ``i`` runs seed ``i`` (a
seed with committed decision references) on both trees: the parent first
in even pairs, the change first in odd ones, so a drift of the host's
speed falls on both sides alike. A run is the file's ``command`` plus
``--workload W --seed S --seconds <run_seconds>``, started in the tree it
measures; perfbench puts that tree's ``src`` first on its children's
path, so each tree measures its own program. The last stdout line of
every run (its result JSON) goes to RECORDS, tagged with side, workload,
seed and order, and then the records are judged.

``judge RECORDS`` compares, for every workload and end-to-end metric, the
median of each side. "Worse by" is how far the change's median moved in
the metric's worse direction, as a share of the parent's median. The
verdict is ``fail`` when the change is worse by more than both the
metric's bound and the parent's quartile spread ((Q3 - Q1) / median, as
``perfbench/spread.py`` computes it), ``unresolved`` when it is worse by
more than the bound but not more than the spread, and ``ok`` otherwise.
A workload also fails when any change run has ``correct: false`` or the
change failed a larger share of periods than the parent, and a workload
or metric missing from the records fails. One line per verdict; the exit
status is 1 on any ``fail``.

Every number the gate applies comes from ``BENCHMARK.json``; the only
constant here is the number of pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Pairs of runs per workload; pair ``i`` runs seed ``i``.
PAIRS = 5

SIDES = ("parent", "change")


def plan(workloads: "list[str]") -> "list[dict]":
    """Every run ``measure`` makes, in the order it makes them."""
    runs = []
    for workload in workloads:
        for seed in range(PAIRS):
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                runs.append(
                    {"side": side, "workload": workload, "seed": seed, "order": len(runs)}
                )
    return runs


def measure(parent: Path, change: Path, records_path: Path) -> int:
    bench = json.loads((change / "BENCHMARK.json").read_text())
    trees = {"parent": parent, "change": change}
    records = {"benchmark": bench, "runs": []}
    for run in plan([workload["name"] for workload in bench["workloads"]]):
        command = [
            *bench["command"],
            "--workload", run["workload"],
            "--seed", str(run["seed"]),
            "--seconds", str(bench["run_seconds"]),
        ]
        completed = subprocess.run(
            command, cwd=trees[run["side"]], capture_output=True, text=True
        )
        if completed.returncode != 0:
            print(
                f"perf_gate: {run['side']} run of {run['workload']} seed {run['seed']} "
                f"exited {completed.returncode}: {completed.stderr.strip()[-2000:]}",
                file=sys.stderr,
            )
            return 1
        run["result"] = json.loads(completed.stdout.strip().splitlines()[-1])
        records["runs"].append(run)
        records_path.write_text(json.dumps(records, indent=1) + "\n")
        print(
            f"{run['order']:>3} {run['side']:<6} {run['workload']} seed {run['seed']}: "
            + " ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in run["result"]["metrics"].items()
            ),
            flush=True,
        )
    return report(judge(records))


def _spread(values: "list[float]") -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _judge_metric(workload: str, metric: dict, runs: dict) -> tuple:
    name = metric["name"]
    values = {
        side: [run["result"]["metrics"].get(name, {}).get("value") for run in runs[side]]
        for side in SIDES
    }
    if any(value is None for side in SIDES for value in values[side]):
        return "fail", workload, name, "missing from the records"
    parent, change = (statistics.median(values[side]) for side in SIDES)
    worse_by = (change - parent) / parent
    if metric["better"] == "higher":
        worse_by = -worse_by
    spread = _spread(values["parent"])
    if worse_by <= metric["bound"]:
        verdict = "ok"
    elif worse_by <= spread:
        verdict = "unresolved"
    else:
        verdict = "fail"
    moved = f"worse by {worse_by:.1%}" if worse_by >= 0 else f"better by {-worse_by:.1%}"
    return verdict, workload, name, (
        f"parent {parent:.4g} -> change {change:.4g} {metric['unit']}: {moved} "
        f"(bound {metric['bound']:.0%}, parent spread {spread:.1%})"
    )


def _judge_failures(workload: str, runs: dict) -> tuple:
    failed = [sum(run["result"]["failed"] for run in runs[side]) for side in SIDES]
    attempted = [sum(run["result"]["attempted"] for run in runs[side]) for side in SIDES]
    shares = [f / a if a else 0.0 for f, a in zip(failed, attempted)]
    incorrect = [run["seed"] for run in runs["change"] if not run["result"]["correct"]]
    verdict = "fail" if incorrect or shares[1] > shares[0] else "ok"
    detail = f"parent {failed[0]}/{attempted[0]} periods failed, change {failed[1]}/{attempted[1]}"
    if incorrect:
        detail += f"; change runs not correct: seeds {incorrect}"
    return verdict, workload, "failed", detail


def judge(records: dict) -> "list[tuple[str, str, str, str]]":
    """``(verdict, workload, check, detail)`` for every check of the records."""
    bench = records["benchmark"]
    verdicts = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {
            side: [
                run
                for run in records["runs"]
                if run["workload"] == workload and run["side"] == side
            ]
            for side in SIDES
        }
        if not all(runs.values()):
            verdicts.append(("fail", workload, "runs", "missing from the records"))
            continue
        verdicts.append(_judge_failures(workload, runs))
        verdicts += [_judge_metric(workload, metric, runs) for metric in bench["end_to_end"]]
    return verdicts


def report(verdicts: "list[tuple[str, str, str, str]]") -> int:
    for verdict, workload, check, detail in verdicts:
        print(f"{verdict:<10} {workload:<20} {check:<16} {detail}")
    return 1 if any(verdict == "fail" for verdict, *_ in verdicts) else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    measure_cmd = commands.add_parser("measure", help="run the pairs, write and judge RECORDS")
    for name in ("parent", "change", "records"):
        measure_cmd.add_argument(name, type=Path)
    commands.add_parser("judge", help="judge RECORDS").add_argument("records", type=Path)
    args = parser.parse_args(argv)
    if args.command == "measure":
        return measure(args.parent.resolve(), args.change.resolve(), args.records)
    return report(judge(json.loads(args.records.read_text())))


if __name__ == "__main__":
    sys.exit(main())
