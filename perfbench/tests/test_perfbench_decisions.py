"""Decision digests, the reference check, and the benchmark's exit contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

pytest.importorskip("repro")

import bench_decisions as decisions  # noqa: E402
from repro.sim.observers import L1DecisionEvent, L2DecisionEvent  # noqa: E402

PERIODS = 40
SUMMARY = {"mean_response": 1.25, "switch_ons": 3, "total_energy": 1e6}


def _capture(perturb_period: "int | None" = None) -> decisions.DecisionCapture:
    capture = decisions.DecisionCapture()
    for period in range(PERIODS):
        capture.on_l2_decision(
            L2DecisionEvent(
                period=period,
                gamma=np.array([0.5, 0.5]),
                prediction=100.0 + period,
            )
        )
        for module in range(2):
            prediction = 50.0 + period
            if period == perturb_period and module == 1:
                prediction = float(np.nextafter(prediction, np.inf))
            capture.on_l1_decision(
                L1DecisionEvent(
                    period=period,
                    module=module,
                    alpha=np.array([True, False, True]),
                    gamma=np.array([0.25, 0.0, 0.75]),
                    prediction=prediction,
                )
            )
    return capture


def _digests(capture):
    return decisions.period_digests(decisions.decision_lines(capture), PERIODS)


def test_one_perturbed_record_fails_exactly_one_period():
    reference = _digests(_capture())
    perturbed = _digests(_capture(perturb_period=17))
    failed = decisions.failed_periods(perturbed, SUMMARY, reference, dict(SUMMARY))
    assert failed == 1
    assert failed / PERIODS == 1 / PERIODS


def test_identical_decisions_fail_nothing():
    reference = _digests(_capture())
    assert decisions.failed_periods(_digests(_capture()), SUMMARY, reference, SUMMARY) == 0


def test_a_differing_summary_fails_every_period():
    reference = _digests(_capture())
    changed = {**SUMMARY, "switch_ons": 4}
    assert decisions.failed_periods(reference, changed, reference, SUMMARY) == PERIODS


def test_reference_files_round_trip(tmp_path):
    digests = _digests(_capture())
    path = decisions.reference_path("w", 7, tmp_path)
    path.parent.mkdir(parents=True)
    path.write_text(
        json.dumps({"digests": decisions.pack_digests(digests), "summary": SUMMARY})
    )
    loaded_digests, loaded_summary = decisions.load_reference("w", 7, tmp_path)
    assert loaded_digests == digests
    assert decisions.canonical(loaded_summary) == decisions.canonical(SUMMARY)
    assert decisions.load_reference("w", 8, tmp_path) is None


def test_committed_references_cover_whole_runs():
    for path in sorted(decisions.REFERENCE_DIR.glob("*/seed-*.json")):
        payload = json.loads(path.read_text())
        digests = decisions.unpack_digests(payload["digests"])
        assert len(digests) == payload["periods"], path
        assert bytes(decisions.DIGEST_BYTES) not in digests, path
        assert payload["kernels"] == ["scalar", "vector"], path


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "baseline-cluster16",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
