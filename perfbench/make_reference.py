"""Regenerate the committed decision references.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py --seeds 0-20 [--workload NAME ...]

For each (workload, seed) it runs one whole pass on the scalar kernel
and one on the vector kernel, each in its own process, requires the two
to agree on every period digest and on the deterministic summary, and
writes ``perfbench/reference/<workload>/seed-<n>.json``. Regenerate only
when a change is meant to alter decisions; the benchmark reports every
period that no longer matches as failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from run import SRC, WORKLOADS, ChildRunner

sys.path.insert(0, str(SRC))
import bench_decisions as decisions  # noqa: E402  (needs the program on sys.path)

KERNELS = ("scalar", "vector")


def parse_seeds(text: str) -> "list[int]":
    seeds: "list[int]" = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def reference_for(workload: str, seed: int) -> dict:
    child = ChildRunner(workload, seed, deadline=time.monotonic() + 3600)
    with ThreadPoolExecutor(max_workers=len(KERNELS)) as pool:
        runs = list(pool.map(lambda kernel: child("reference", kernel=kernel), KERNELS))
    scalar, vector = runs
    if (scalar["digests"], decisions.canonical(scalar["summary"])) != (
        vector["digests"],
        decisions.canonical(vector["summary"]),
    ):
        raise SystemExit(f"{workload} seed {seed}: scalar and vector kernels disagree")
    return {
        "workload": workload,
        "scenario": child.spec.scenario,
        "seed": seed,
        "periods": scalar["periods"],
        "kernels": list(KERNELS),
        "digest_bytes": decisions.DIGEST_BYTES,
        "digests": scalar["digests"],
        "summary": scalar["summary"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 0,3,5-7")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workload or sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            reference = reference_for(workload, seed)
            path = decisions.reference_path(workload, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"{path}: {reference['periods']} periods", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
