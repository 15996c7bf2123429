"""Flash crowds and constant-memory recording.

Two things in one walkthrough:

1. the ``flashcrowd`` workload kind — a spike train layered on a base
   rate, the regime shift the L1 predictor cannot forecast from history;
2. recorder windows (``.window(n)`` / ``repro run --window n``) — ring
   buffers plus online aggregates that keep month-long runs in constant
   memory while the summary stays **bit-identical** to the full recorder.

Run from the repo root:

    PYTHONPATH=src python examples/flash_crowd.py
"""

import json

from repro.common.ascii_chart import line_chart
from repro.scenario import Scenario, run_scenario


def main() -> None:
    # A module of four under flash crowds: 40 req/s base, spiking to
    # 4x (~80% of full-speed capacity) every 60 control periods and
    # decaying over ~8 periods.
    spec = (
        Scenario.module(m=4)
        .workload(
            "flashcrowd",
            samples=240,
            rate=40.0,
            spike_every=60,
            spike_magnitude=3.0,
            spike_decay=8.0,
        )
        .control(warmup_intervals=10)
        .seed(0)
        .build()
    )

    full = run_scenario(spec)
    print(line_chart(full.l1_arrivals, title="flash-crowd arrivals per 2-min period", height=8))
    print()
    print(line_chart(full.computers_on, title="computers on (of 4)", height=5))
    print()
    print("full recorder:    ", full.summary())

    # Same run, but the recorder keeps only the last 64 T_L0 steps.
    windowed = run_scenario(spec.with_overrides(**{"control.window": 64}))
    print("windowed (64):    ", windowed.summary())
    print(f"retained steps:    {windowed.steps} of {full.steps}")

    # The summary metrics are not merely close — they are the same bits,
    # because both recorders accumulate the same online aggregates.
    full_payload = json.dumps(full.summary().deterministic_dict(), sort_keys=True)
    win_payload = json.dumps(windowed.summary().deterministic_dict(), sort_keys=True)
    assert full_payload == win_payload
    print("windowed summary is byte-identical to the full recorder's")

    # The same knob from the CLI — this is what the longtrace-smoke CI
    # job pins, together with a tracemalloc budget on a 20k-period run:
    #
    #   repro run workloads/flashcrowd-module --samples 20000 --window 256
    #
    # The registered cluster variants (workloads/flashcrowd-cluster16,
    # workloads/zipfmix-cluster16) accept --window too, on either
    # --kernel; the summary stays identical there as well.


if __name__ == "__main__":
    main()
