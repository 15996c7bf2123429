"""BASE1 — LLC hierarchy versus the heuristics of [14] and [25].

The paper positions its framework against threshold heuristics: machines
and speeds raised/lowered when utilisation crosses thresholds, with no
lookahead, no dead-time awareness, and no explicit QoS constraint. This
bench quantifies that comparison on the §4.3 module workload: energy,
response time, violations, and switching for each policy.

Expected shape: always-on-max burns the most energy with the best QoS;
the LLC hierarchy cuts energy substantially while holding the r* = 4 s
average target; the naive threshold policies sit between or below on
energy but give up QoS control (no r* anywhere in their logic).
"""

import os

from repro.cluster import paper_module_spec
from repro.controllers import (
    AlwaysOnMaxController,
    ThresholdDvfsController,
    ThresholdOnOffController,
)
from repro.scenario import Scenario, run_scenario

SAMPLES = 120 if os.environ.get("REPRO_BENCH_FAST") else 720


def _module_scenario():
    return (
        Scenario.module(m=4)
        .workload("synthetic", samples=SAMPLES)
        .seed(0)
        .build()
    )


def test_baseline_comparison(benchmark, report, behavior_maps):
    spec = paper_module_spec()
    runs = {}
    runs["llc-hierarchy"] = run_scenario(
        _module_scenario(), behavior_maps=behavior_maps
    )
    runs["threshold-on/off"] = run_scenario(
        _module_scenario(),
        baseline=ThresholdOnOffController(paper_module_spec()),
    )
    runs["threshold+dvfs"] = run_scenario(
        _module_scenario(),
        baseline=ThresholdDvfsController(paper_module_spec()),
    )
    runs["always-on-max"] = run_scenario(
        _module_scenario(),
        baseline=AlwaysOnMaxController(paper_module_spec()),
    )

    lines = ["BASE1 — LLC versus threshold heuristics (module of 4)", ""]
    lines.append(
        f"{'policy':>18} | {'mean r (s)':>10} | {'viol %':>7} | "
        f"{'energy':>8} | {'vs max':>7} | {'switches':>8} | {'avg on':>6}"
    )
    lines.append("-" * 82)
    max_energy = runs["always-on-max"].summary().total_energy
    for name, result in runs.items():
        s = result.summary()
        lines.append(
            f"{name:>18} | {s.mean_response:>10.2f} | "
            f"{100 * s.violation_fraction:>7.2f} | {s.total_energy:>8.0f} | "
            f"{100 * s.total_energy / max_energy:>6.1f}% | "
            f"{s.switch_ons + s.switch_offs:>8d} | {s.mean_computers_on:>6.2f}"
        )
    lines.append("")
    lines.append("paper-vs-measured:")
    lines.append(
        "  paper: claims the framework gives systematic energy management "
        "with explicit QoS, versus ad hoc threshold tuning (no table given)"
    )
    llc = runs["llc-hierarchy"].summary()
    lines.append(
        f"  measured: LLC at {100 * llc.total_energy / max_energy:.0f}% of "
        f"always-on energy with mean r = {llc.mean_response:.2f} s (target 4); "
        "thresholds need per-workload tuning to match either axis"
    )
    report("baseline_comparison", "\n".join(lines))

    # Shape assertions: LLC saves energy vs always-on while meeting r*.
    assert llc.total_energy < 0.85 * max_energy
    assert llc.mean_response < 4.0
    # Always-on is the QoS-safest (fewest violations).
    assert (
        runs["always-on-max"].summary().violation_fraction
        <= llc.violation_fraction + 1e-9
    )

    # Kernel: one threshold-baseline decision (the cheap comparator) at
    # 12,000 arrivals per two-minute period.
    baseline = ThresholdOnOffController(paper_module_spec())
    import numpy as np

    alpha = np.ones(4, dtype=bool)
    decision = benchmark(lambda: baseline.act(12000.0 / 120.0, 0.0175, alpha))
    assert decision.gamma.sum() == 1.0
