"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload paper-cluster16 --seeds 0-9

Runs ``run.py`` once per seed (sequentially, ``--trace 0``) and prints,
for each end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median, next to the bound
``BENCHMARK.json`` allows. A metric whose spread exceeds a third of its
bound is flagged: comparisons against it would not be trustworthy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from make_reference import parse_seeds

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: "dict[str, list[float]]" = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        command = [
            *bench["command"],
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']}/{result['attempted']} periods failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"seed {seed}: "
            + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
            flush=True,
        )
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < metric["bound"] / 3 else "   <-- above bound/3"
        print(
            f"{metric['name']:<18} median {median:10.4g} {metric['unit']:<4} "
            f"spread {spread:7.2%} (bound {metric['bound']:.0%}){flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
