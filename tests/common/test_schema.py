"""The status snapshot and decision records the byte-compared surfaces share."""

import json

import numpy as np

from repro.common.schema import (
    SCHEMA_VERSION,
    decision_line,
    l1_decision_record,
    l2_decision_record,
    run_payload,
    status_payload,
    summary_payload,
)
from repro.sim.observers import L1DecisionEvent, L2DecisionEvent
from repro.sim.results import DETERMINISTIC_SUMMARY_METRICS, RunSummary

SUMMARY = RunSummary(
    mean_response=1.5,
    violation_fraction=0.125,
    total_energy=900.0,
    base_energy=600.0,
    dynamic_energy=250.0,
    transient_energy=50.0,
    switch_ons=3,
    switch_offs=2,
    mean_computers_on=3.25,
    controller_seconds=0.75,
    l1_mean_states=40.0,
)


def _status(**overrides):
    fields = dict(
        scenario="paper/fig4-module4",
        state="running",
        step=np.int64(12),
        total_steps=np.int64(48),
        period=np.int32(3),
        summary=SUMMARY,
        allocations=[],
        forecasts={},
        overrides=[],
        deadline={},
        audit_entries=np.int64(5),
    )
    fields.update(overrides)
    return status_payload(**fields)


class TestSummaryPayload:
    def test_lists_the_deterministic_metrics_in_their_order(self):
        payload = summary_payload(SUMMARY)
        assert list(payload) == list(DETERMINISTIC_SUMMARY_METRICS)
        assert (payload["mean_computers_on"], payload["switch_offs"]) == (3.25, 2)
        assert run_payload("paper/x", SUMMARY) == {
            "scenario": "paper/x",
            "summary": payload,
        }


class TestStatusPayload:
    def test_summary_is_the_run_json_summary_without_wall_clock(self):
        status = _status()
        assert status["schema"] == SCHEMA_VERSION
        assert status["summary"] == run_payload("x", SUMMARY)["summary"]
        assert "controller_seconds" not in status["summary"]

    def test_counters_are_plain_ints_and_shed_defaults_to_none(self):
        status = _status()
        for key in ("step", "total_steps", "period", "audit_entries"):
            assert type(status[key]) is int
        assert (status["step"], status["total_steps"], status["period"]) == (12, 48, 3)
        assert status["shed"] is None
        json.dumps(status)  # numpy scalars would not serialise
        shed = {"fraction": 0.3, "dropped_requests": 10.0}
        assert _status(shed=shed)["shed"] == shed


class TestDecisionRecords:
    def test_l1_record_is_plain_data_with_both_flags(self):
        event = L1DecisionEvent(
            period=np.int64(4), module=np.int64(1), alpha=np.array([1, 0, 1]),
            gamma=np.array([0.5, 0.0, 0.5]), prediction=np.float64(1234.5),
            held=True,
        )
        record = l1_decision_record(event)
        assert record == {
            "type": "l1", "period": 4, "module": 1, "alpha": [1, 0, 1],
            "gamma": [0.5, 0.0, 0.5], "prediction": 1234.5, "held": True,
            "forced": False,
        }
        assert type(record["alpha"][0]) is int and type(record["gamma"][0]) is float

    def test_l2_record_renders_as_one_sorted_line(self):
        event = L2DecisionEvent(
            period=2, gamma=np.array([0.25, 0.75]), prediction=1e4
        )
        line = decision_line(l2_decision_record(event))
        assert line == (
            '{"gamma": [0.25, 0.75], "held": false, "period": 2, '
            '"prediction": 10000.0, "type": "l2"}'
        )
