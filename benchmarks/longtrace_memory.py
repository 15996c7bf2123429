"""Long-horizon memory gate: a windowed run must hold constant memory.

Runs a 20k-control-period flash-crowd scenario (an ~28-day trace at
2-minute periods, 80k T_L0 steps) under ``--window`` and asserts the
tracemalloc peak stays inside the budget. The full preallocating
recorder needs ~10.5 MiB for the same horizon and grows linearly with
it; the windowed recorder's ring buffers, online summary aggregates
and streaming controller stats keep the peak flat at ~2.5 MiB no
matter how long the trace runs.

The controller is pinned to the threshold-DVFS baseline so the gate
runs in CI time; recorder memory is control-mode-independent. Invoked
by the ``longtrace-smoke`` CI job::

    PYTHONPATH=src python benchmarks/longtrace_memory.py \
        --samples 20000 --window 256 --budget-mib 6
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="workloads/flashcrowd-module")
    parser.add_argument("--samples", type=int, default=20000)
    parser.add_argument("--window", type=int, default=256)
    parser.add_argument(
        "--budget-mib", type=float, default=6.0,
        help="maximum allowed tracemalloc peak (MiB)",
    )
    parser.add_argument(
        "--mode", default="threshold-dvfs",
        help="control.mode override ('hierarchy' for the full stack)",
    )
    args = parser.parse_args(argv)

    from repro.scenario import get_scenario, run_scenario

    scenario = get_scenario(args.scenario, samples=args.samples)
    scenario = scenario.with_overrides(
        **{"control.mode": args.mode, "control.window": args.window}
    )
    tracemalloc.start()
    summary = run_scenario(scenario).summary()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    peak_mib = peak / 2**20
    print(
        f"{args.scenario}: {args.samples} control periods under "
        f"--window {args.window}"
    )
    print(summary)
    print(
        f"tracemalloc peak: {peak_mib:.2f} MiB "
        f"(budget {args.budget_mib:.2f} MiB)"
    )
    if peak_mib > args.budget_mib:
        print(
            f"FAIL: peak {peak_mib:.2f} MiB exceeds the "
            f"{args.budget_mib:.2f} MiB budget — the windowed recorder "
            "path is no longer constant-memory",
            file=sys.stderr,
        )
        return 1
    print("OK: windowed long-horizon run stayed inside the memory budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
