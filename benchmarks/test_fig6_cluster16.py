"""FIG6 — WC'98 workload and computers operated on the 16-machine cluster.

Reproduces the paper's Fig. 6: the World-Cup-98-shaped arrival trace at
2-minute intervals and the number of computers (of sixteen, in four
modules) the full L2/L1/L0 hierarchy keeps operating. The benchmark
kernels are one L2 decision over the quantised gamma simplex, from one
current allocation on every call and from two that alternate.
"""

import itertools

import numpy as np

from repro.common.ascii_chart import line_chart, series_table


def test_fig6_cluster_tracking(benchmark, report, fig6_result, module_cost_map):
    result = fig6_result

    lines = ["FIG 6 — WC'98 trace and computers operated (16 machines)", ""]
    lines.append(
        line_chart(
            result.global_arrivals,
            title="request arrivals per 2-minute interval (WC'98 shape)",
            height=9,
        )
    )
    lines.append("")
    lines.append(
        line_chart(
            result.total_computers_on,
            title="computers operated by the hierarchy (of 16)",
            height=8,
        )
    )
    lines.append("")
    lines.append(
        series_table(
            {
                "arrivals": result.global_arrivals,
                "predicted": result.global_predictions,
                "on": result.total_computers_on,
            },
            index_name="period",
            max_rows=16,
        )
    )
    summary = result.summary()
    lines.append("")
    # deterministic_str omits the wall-clock controller time, so this
    # committed report only changes when the results change.
    lines.append(f"run summary: {summary.deterministic_str()}")
    lines.append("")
    lines.append("paper-vs-measured:")
    lines.append(
        "  paper: machine count follows the diurnal WC'98 curve; "
        "r* = 4 s achieved throughout"
    )
    corr = np.corrcoef(result.global_arrivals, result.total_computers_on)[0, 1]
    lines.append(
        f"  measured: load/machines correlation = {corr:.2f} | "
        f"mean r = {summary.mean_response:.2f} s (target 4) | "
        f"machines range {int(result.total_computers_on.min())}-"
        f"{int(result.total_computers_on.max())}"
    )
    report(
        "fig6_cluster16",
        "\n".join(lines),
        volatile=(
            "FIG 6 (volatile) — wall-clock controller times, this host/run\n"
            f"\nctrl = {summary.controller_seconds:.2f} s | hierarchy path "
            f"= {1e3 * result.hierarchy_path_seconds():.1f} ms/period"
        ),
    )

    assert summary.mean_response < 4.0
    if result.global_arrivals.size >= 300:
        # Full-day runs cover the diurnal cycle; the machine count must
        # track it. (Fast-mode runs only see the flat overnight segment,
        # where correlation with noise is meaningless.)
        assert corr > 0.5
    assert result.total_computers_on.max() > result.total_computers_on.min()

    # Kernel: one L2 decision (286 gamma vectors x 4 modules x 2 terms).
    # Its current allocation repeats, so every call after the first finds
    # it quantised already.
    from repro.controllers import L2Controller

    l2 = L2Controller([module_cost_map] * 4)
    queue_avgs = np.array([5.0, 0.0, 12.0, 3.0])

    def kernel():
        return l2.decide(queue_avgs, 420.0, 450.0, 0.0175,
                         gamma_current=np.full(4, 0.25))

    decision = benchmark(kernel)
    assert decision.gamma.sum() == 1.0


def test_fig6_l2_kernel_alternating_allocations(benchmark, module_cost_map):
    """The L2 kernel when the current allocation changes at every call.

    Two allocations alternate, so every call quantises its own and
    rebuilds its reconfiguration lifts.
    """
    from repro.controllers import L2Controller

    l2 = L2Controller([module_cost_map] * 4)
    queue_avgs = np.array([5.0, 0.0, 12.0, 3.0])
    allocations = itertools.cycle([np.full(4, 0.25), np.array([0.4, 0.3, 0.2, 0.1])])

    def kernel():
        return l2.decide(queue_avgs, 420.0, 450.0, 0.0175,
                         gamma_current=next(allocations))

    decision = benchmark(kernel)
    assert abs(decision.gamma.sum() - 1.0) < 1e-12
