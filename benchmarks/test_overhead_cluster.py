"""OVH2 — §5.2 hierarchy execution time along one L2->L1->L0 path.

The paper: "the average execution time of the hierarchical optimization
scheme is simply the sum of the controller execution times along any one
path of the hierarchy ... 2.5 seconds for the cluster of sixteen
computers ... 3.4 seconds [for] twenty computers, partitioned into five
modules" — i.e. near-flat growth with cluster size, because the L2 only
ever reasons about p modules and each L1 about m computers.

We re-measure the same path quantity on CPython and check the
scalability *shape*: the 16 -> 20 computer growth factor stays near
flat. The L2 scores its 286 -> 1001 simplex vectors from per-module
share tables, so the simplex blow-up costs a gather, not tree walks. It
fills those tables without walking a tree at all: each controller
compiles its module trees once into a cell table over the union of their
split thresholds, and a solve then makes five ``searchsorted`` calls and
three gathers (each module's period-k cost and next queue at the 11
quantised shares of the forecast, then its period-k+1 cost at that
queue and the shares of the next forecast).
"""

import os

import numpy as np

from repro.controllers.l2 import L2Controller
from repro.scenario import Scenario, build_simulation, run_scenario

SAMPLES = 60 if os.environ.get("REPRO_BENCH_FAST") else 200


def test_overhead_cluster_path(benchmark, report, fig6_result):
    sixteen = fig6_result
    twenty = run_scenario(
        Scenario.cluster(p=5).workload("wc98", samples=SAMPLES).seed(0).build()
    )

    path16 = sixteen.hierarchy_path_seconds()
    path20 = twenty.hierarchy_path_seconds()

    # Committed report: the deterministic search-size metric only; the
    # measured path times go to the untracked volatile sidecar.
    lines = ["OVH2 — hierarchy search size vs cluster size", ""]
    lines.append(
        f"{'computers':>10} | {'modules':>8} | {'L2 states/period':>16}"
    )
    lines.append("-" * 42)
    lines.append(
        f"{16:>10} | {4:>8} | {sixteen.l2_stats.mean_states:>16.0f}"
    )
    lines.append(
        f"{20:>10} | {5:>8} | {twenty.l2_stats.mean_states:>16.0f}"
    )
    lines.append("")
    lines.append("paper-vs-measured:")
    lines.append(
        "  paper (MATLAB 2006): near-flat execution-time growth with "
        "cluster size — the L2 only ever reasons about p modules"
    )
    lines.append(
        "  measured (CPython): L2 simplex grows 286 -> 1001 vectors from "
        "p=4 to p=5; L1/L0 path unchanged (wall-clock path times: see "
        "benchmarks/out/volatile/)"
    )
    growth = path20 / max(path16, 1e-12)
    volatile = "\n".join(
        [
            "OVH2 (volatile) — hierarchy path time, this host/run",
            "",
            f"{'computers':>10} | {'modules':>8} | {'path time/period':>18}",
            "-" * 44,
            f"{16:>10} | {4:>8} | {1e3 * path16:>15.1f} ms",
            f"{20:>10} | {5:>8} | {1e3 * path20:>15.1f} ms",
            "",
            "  paper (MATLAB 2006): 2.5 s (16 computers) -> 3.4 s (20 "
            "computers); 1.36x growth",
            f"  measured (CPython): {1e3 * path16:.1f} ms -> "
            f"{1e3 * path20:.1f} ms; {growth:.2f}x growth",
        ]
    )
    report("overhead_cluster", "\n".join(lines), volatile=volatile)

    assert sixteen.summary().mean_response < 4.0
    assert twenty.summary().mean_response < 4.0
    # Deployable criterion: the hierarchy's per-period path time stays
    # far below the T_L2 sampling period at both cluster sizes.
    assert path16 < 0.01 * 120.0
    assert path20 < 0.01 * 120.0
    # Scalability shape: near-flat, as in the paper (1.36x). The L2's
    # share tables grow with p, not with the 3.5x larger simplex, and
    # each L1/L0 reasons only about its own module. Measured 0.8-1.3x;
    # scoring the simplex by walking the trees per candidate measured
    # 2.9-3.7x. The bound sits between, with room for host speed swings.
    assert growth < 2.5

    # Kernel: one L2 solve of the 20-computer variant (p = 5, all 1001
    # simplex vectors scored).
    simulation = build_simulation(
        Scenario.cluster(p=5).workload("wc98", samples=SAMPLES).seed(0).build()
    )
    l2 = L2Controller(simulation.module_maps, simulation.l2_params)
    decision = benchmark(
        lambda: l2.decide(np.zeros(5), 1000.0, 1000.0, 0.0175, np.full(5, 0.2))
    )
    assert decision.states_explored == 2 * 1001 * 5
