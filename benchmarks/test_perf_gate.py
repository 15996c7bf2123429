"""The performance gate's judgement on synthetic records, and its proof that it can fail."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import perf_gate  # noqa: E402

BENCHMARK = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
TIMINGS = [name for name, unit in UNITS.items() if unit in ("s", "ms", "1/s")]

#: Medians of a typical run, and per-seed scales giving a 3 % parent spread.
BASE = {
    "setup_s": 2.5,
    "periods_per_s": 360.0,
    "decision_p50_ms": 1.7,
    "decision_p99_ms": 4.2,
    "peak_rss_mib": 53.0,
}
JITTER = (0.99, 1.01, 1.0, 0.98, 1.02)


def slower(*names, factor=2.0):
    """A change whose ``names`` take ``factor`` times as long (rates divide)."""

    def change(name, value):
        if name not in names:
            return value
        return value / factor if UNITS[name] == "1/s" else value * factor

    return change


def records(change=lambda name, value: value, jitter=JITTER, change_jitter=None, base=BASE):
    """Every run of the gate's plan; the change side defaults to the parent's values."""
    change_jitter = change_jitter or jitter
    runs = []
    for run in perf_gate.plan(WORKLOADS):
        scale = (jitter if run["side"] == "parent" else change_jitter)[run["seed"]]
        values = {name: value * scale for name, value in base.items()}
        if run["side"] == "change":
            values = {name: change(name, value) for name, value in values.items()}
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        result = {"correct": True, "attempted": 1800, "failed": 0, "metrics": metrics}
        runs.append({**run, "result": result})
    return {"benchmark": BENCHMARK, "runs": runs}


def verdicts(recs):
    return {(workload, check): verdict for verdict, workload, check, _ in perf_gate.judge(recs)}


def failing(recs):
    return {key for key, verdict in verdicts(recs).items() if verdict == "fail"}


def change_runs(recs, workload=WORKLOADS[0]):
    return [r for r in recs["runs"] if r["side"] == "change" and r["workload"] == workload]


def judge_exit(recs, tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(recs))
    return perf_gate.main(["judge", str(path)])


def test_identical_sides_pass(tmp_path):
    recs = records()
    assert set(verdicts(recs).values()) == {"ok"}
    assert judge_exit(recs, tmp_path) == 0


@pytest.mark.parametrize("metric", ["setup_s", "decision_p50_ms", "decision_p99_ms", "periods_per_s"])
def test_2x_slowdown_fails_and_names_the_metric(metric, tmp_path, capsys):
    recs = records(slower(metric))
    assert failing(recs) == {(workload, metric) for workload in WORKLOADS}
    assert judge_exit(recs, tmp_path) == 1
    fail_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("fail")]
    assert len(fail_lines) == len(WORKLOADS)
    assert all(metric in line for line in fail_lines)


def test_jitter_inside_the_bound_passes():
    recs = records(change_jitter=(1.06, 0.95, 1.04, 0.97, 1.08))
    assert set(verdicts(recs).values()) == {"ok"}


@pytest.mark.parametrize("factor, verdict", [(1.15, "fail"), (1.05, "ok")])
def test_peak_rss_is_held_to_its_10_percent_bound(factor, verdict):
    recs = records(lambda name, value: value * factor if name == "peak_rss_mib" else value)
    assert verdicts(recs)[(WORKLOADS[0], "peak_rss_mib")] == verdict


def test_a_change_run_that_is_not_correct_fails():
    recs = records()
    # The parent failed as many periods, so only ``correct`` trips.
    parent_run = next(r for r in recs["runs"] if r["side"] == "parent")
    parent_run["result"].update(correct=False, failed=1)
    change_runs(recs)[0]["result"].update(correct=False, failed=1)
    assert failing(recs) == {(WORKLOADS[0], "failed")}


def test_a_larger_failed_share_than_the_parent_fails():
    recs = records()
    change_runs(recs)[2]["result"]["failed"] = 3
    assert failing(recs) == {(WORKLOADS[0], "failed")}


def test_a_shift_inside_the_parent_spread_is_unresolved(tmp_path):
    # The parent's setup_s quartiles span 70 % of its median; the change
    # is 40 % slower, past the 25 % bound but inside that spread.
    recs = records(slower("setup_s", factor=1.4), jitter=(0.6, 1.4, 1.0, 0.7, 1.3))
    assert {key[1] for key, v in verdicts(recs).items() if v != "ok"} == {"setup_s"}
    assert {v for key, v in verdicts(recs).items() if key[1] == "setup_s"} == {"unresolved"}
    assert judge_exit(recs, tmp_path) == 0


def test_a_missing_metric_fails():
    recs = records()
    del change_runs(recs)[3]["result"]["metrics"]["decision_p99_ms"]
    assert failing(recs) == {(WORKLOADS[0], "decision_p99_ms")}


def test_a_missing_workload_fails():
    recs = records()
    recs["runs"] = [r for r in recs["runs"] if r["workload"] != WORKLOADS[-1]]
    assert failing(recs) == {(WORKLOADS[-1], "runs")}


def test_measure_plan_alternates_which_side_runs_first():
    runs = perf_gate.plan(WORKLOADS)
    assert [r["order"] for r in runs] == list(range(2 * perf_gate.PAIRS * len(WORKLOADS)))
    for workload in WORKLOADS:
        for seed in range(perf_gate.PAIRS):
            pair = [r["side"] for r in runs if r["workload"] == workload and r["seed"] == seed]
            assert pair == (["parent", "change"] if seed % 2 == 0 else ["change", "parent"])


def test_every_end_to_end_metric_of_the_benchmark_gets_a_verdict():
    judged = verdicts(records())
    for workload in WORKLOADS:
        assert (workload, "failed") in judged
        for metric in BENCHMARK["end_to_end"]:
            assert (workload, metric["name"]) in judged


@settings(max_examples=40, deadline=None)
@given(
    base=st.fixed_dictionaries({name: st.floats(0.01, 1e4) for name in BASE}),
    jitter=st.lists(st.floats(0.9, 1.1), min_size=perf_gate.PAIRS, max_size=perf_gate.PAIRS),
)
def test_identical_sides_pass_and_doubled_timings_fail(base, jitter):
    assert set(verdicts(records(jitter=jitter, base=base)).values()) == {"ok"}
    doubled = records(slower(*TIMINGS), jitter=jitter, base=base)
    assert failing(doubled) == {(w, name) for w in WORKLOADS for name in TIMINGS}
