"""One measured process of the benchmark (spawned by ``run.py``).

Usage: ``python3 perfbench/bench_child.py '<json config>'`` with
``PYTHONPATH`` naming the checkout's ``src``. The last stdout line is a
JSON object with what the process measured.

The process drives the public run protocol with one caller and no
threads: ``get_scenario`` -> ``build_simulation`` -> ``reset`` ->
``step`` ... -> ``finish``, with the engine options the scenario
resolves by default (what a bare ``repro run <name>`` gets). Modes:

``setup``
    Measure interpreter start -> the first ``step()`` call, then exit.
``run``
    Set up, then step whole runs back to back until both ``seconds`` of
    stepping and ``min_periods`` control periods are reached, checking
    every run's decisions against the committed reference. Stepping is
    timed in chunks of ``chunk_periods`` with a calibration sample after
    each (``bench_calibration``); timings are reported calibrated.
``trace``
    As ``run`` for exactly one pass, with every layer entry point
    wrapped; reports per-layer counts and self times.
``reference``
    One pass; prints the per-period digests and summary to commit.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import bench_calibration as calibration


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def step_through(simulation, every: int) -> "tuple[list[float], list[float], list[float]]":
    """Step one run to the end in chunks of ``every`` control periods.

    Returns each chunk's wall time, each period-opening ``step()``'s
    wall time, and the calibration samples taken before the first chunk
    and after every chunk (their time is in no chunk).
    """
    substeps = simulation.substeps
    clock = time.perf_counter
    chunks: "list[float]" = []
    opening: "list[float]" = []
    samples = [calibration.sample()]
    in_chunk = 0
    start = clock()
    while not simulation.finished:
        if simulation.steps_taken % substeps == 0:
            if in_chunk == every:
                chunks.append(clock() - start)
                samples.append(calibration.sample())
                in_chunk = 0
                start = clock()
            in_chunk += 1
            began = clock()
            simulation.step()
            opening.append(clock() - began)
        else:
            simulation.step()
    chunks.append(clock() - start)
    samples.append(calibration.sample())
    return chunks, opening, samples


def merged_stats(stats_list):
    from repro.controllers.stats import ControllerStats

    merged = ControllerStats()
    for stats in stats_list:
        merged = merged.merged_with(stats)
    return merged


def controller_stats(result) -> dict:
    """The run's public ``ControllerStats`` per level."""
    modules = getattr(result, "module_results", None)
    if modules is None:
        return {"l1": result.l1_stats, "l0": result.l0_stats}
    return {
        "l2": result.l2_stats,
        "l1": merged_stats(m.l1_stats for m in modules),
        "l0": merged_stats(m.l0_stats for m in modules),
    }


def main() -> None:
    config = json.loads(sys.argv[1])
    mode = config["mode"]
    spawned = config["spawned"]
    src = Path(config["src"]).resolve()

    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")

    from repro.maps.stats import MAP_STATS
    from repro.scenario import runner
    from repro.scenario.registry import get_scenario

    import bench_decisions as decisions
    import bench_spans as spans

    spec = get_scenario(config["scenario"], seed=config["seed"])
    if config.get("kernel"):
        spec = spec.with_overrides(**{"control.kernel": config["kernel"]})
    setup_layers = tuple(layer for layer in spans.LAYERS if layer.phase == "setup")
    step_layers = tuple(layer for layer in spans.LAYERS if layer.phase != "setup")
    setup_spans = step_spans = None
    if mode == "trace":
        setup_spans = spans.SpanRecorder()
        setup_spans.install(setup_layers)

    capture = decisions.DecisionCapture()
    simulation = runner.build_simulation(spec)
    simulation.reset(observers=(capture,))
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        emit({"setup_s": setup_s})
        return
    calibration.kernel()  # warm-up, untimed
    maps_trained = MAP_STATS.trainings

    if mode == "trace":
        setup_spans.uninstall()
        step_spans = spans.SpanRecorder()
        step_spans.install(step_layers)

    reference = decisions.load_reference(config["workload"], config["seed"])
    single_pass = mode in ("trace", "reference")
    first: "tuple[list[bytes], dict] | None" = None
    periods = attempted = failed = 0
    every = config["chunk_periods"]
    stepping_s = calibrated_s = 0.0
    opening: "list[float]" = []
    wall_opening: "list[float]" = []
    all_samples: "list[float]" = []
    pass_rates: "list[float]" = []
    passes = 0
    while True:
        chunks, opened, samples = step_through(simulation, every)
        if step_spans is not None:
            # Spans cover the stepping loop only, not result assembly.
            step_spans.uninstall()
        result = simulation.finish()
        close = getattr(simulation, "close", None)
        if close is not None:
            close()
        scales = calibration.chunk_scales(samples)
        calibrated = sum(wall * factor for wall, factor in zip(chunks, scales))
        passes += 1
        stepping_s += sum(chunks)
        calibrated_s += calibrated
        pass_rates.append(simulation.periods / calibrated)
        opening.extend(wall * scales[i // every] for i, wall in enumerate(opened))
        wall_opening.extend(opened)
        all_samples.extend(samples)
        periods += simulation.periods
        digests = decisions.period_digests(
            decisions.decision_lines(capture), simulation.periods
        )
        summary = result.summary().deterministic_dict()
        if first is None:
            first = (digests, summary)
        failed += decisions.failed_periods(digests, summary, *(reference or first))
        attempted += simulation.periods
        if single_pass or (
            stepping_s >= config["seconds"] and periods >= config["min_periods"]
        ):
            break
        capture = decisions.DecisionCapture()
        simulation = runner.build_simulation(spec)
        simulation.reset(observers=(capture,))

    import numpy as np

    payload = {
        "mode": mode,
        "kernel": simulation.kernel,
        "execution": getattr(simulation, "execution", "serial"),
        "setup_s": setup_s,
        "passes": passes,
        "periods": periods,
        "stepping_s": stepping_s,
        "calibrated_stepping_s": calibrated_s,
        "calibration_s": statistics.median(all_samples),
        "pass_periods_per_s": pass_rates,
        "decision_samples": len(opening),
        "decision_p50_ms": float(np.percentile(opening, 50)) * 1e3,
        "decision_p99_ms": float(np.percentile(opening, 99)) * 1e3,
        "wall_decision_p50_ms": float(np.percentile(wall_opening, 50)) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "checked_against": "reference" if reference is not None else "first-pass",
        "maps_trained": maps_trained,
    }
    if mode == "reference":
        payload["digests"] = decisions.pack_digests(first[0])
        payload["summary"] = first[1]
    if mode == "trace":
        payload["layers"] = layer_report(
            spans, setup_spans, step_spans, controller_stats(result), stepping_s
        )
        spans_out = Path(config["spans_out"])
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w", encoding="utf-8") as stream:
            setup_spans.write(stream, "setup")
            step_spans.write(stream, "stepping")
    emit(payload)


def layer_report(spans, setup_spans, step_spans, stats: dict, stepping_s: float) -> dict:
    """Per-layer calls / self time / states per call, plus coverage."""
    totals = spans.layer_totals(setup_spans.spans)
    totals.update(spans.layer_totals(step_spans.spans))
    missing = {**setup_spans.missing, **step_spans.missing}
    report: dict = {}
    for layer in spans.LAYERS:
        entry = totals.get(layer.name, spans.LayerTotals())
        row = {
            "calls": entry.calls,
            "self_s": entry.self_s,
            "missing": missing.get(layer.name, []),
            "absent": None if entry.calls else "not run",
        }
        if row["missing"] and not entry.calls:
            row["absent"] = "entry points missing: " + ", ".join(row["missing"])
        controller = stats.get(layer.name)
        if controller is not None and entry.calls:
            row["states_per_call"] = controller.mean_states
        report[layer.name] = row
    stepped = spans.root_seconds(step_spans.spans)
    report["trace"] = {
        "stepping_s": stepping_s,
        "accounted": stepped / stepping_s if stepping_s else 0.0,
        "step_layer_self_s": sum(
            totals[layer.name].self_s
            for layer in spans.LAYERS
            if layer.phase != "setup" and layer.name in totals
        ),
        "step_root_s": stepped,
    }
    return report


if __name__ == "__main__":
    main()
