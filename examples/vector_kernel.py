"""The vectorized control-period kernel: a pure speed knob.

`control.kernel = "vector"`, the default, swaps the engines'
per-computer Python hot loops for numpy-batched ones — a module or
cluster step runs every serving computer's L0 lookahead tree as one
batched call and then advances every machine's fluid queue as one
array, and each boundary feeds the closed period to the filters the
decisions read in one batched Kalman update.

The contract is not "approximately the same", but deterministic
summaries that are
**bit-identical** to the scalar reference path (`control.kernel =
"scalar"`), which stays in the tree as the parity oracle. CI gates the
pair with `cmp` on the run JSON.

Run from the repo root:

    PYTHONPATH=src python examples/vector_kernel.py
"""

import json
import time

from repro.scenario import get_scenario, run_scenario

SCENARIO = "cluster-baseline-showdown"
SAMPLES = 120


def timed_run(spec):
    started = time.perf_counter()
    result = run_scenario(spec)
    return result, time.perf_counter() - started


def main() -> None:
    base = get_scenario(SCENARIO, samples=SAMPLES)

    # The declarative switch: control.kernel. "vector" is the default;
    # "scalar" selects the reference path, here and from the builder
    # (`Scenario.cluster(...).kernel("scalar")`), the CLI (`repro run
    # ... --kernel scalar`), and the EngineOptions surface
    # (`EngineOptions(kernel="scalar")`) when driving ClusterSimulation
    # directly.
    scalar_spec = base.with_overrides(**{"control.kernel": "scalar"})
    scalar, scalar_seconds = timed_run(scalar_spec)

    vector_spec = base.with_overrides(**{"control.kernel": "vector"})
    vector, vector_seconds = timed_run(vector_spec)

    scalar_payload = json.dumps(
        scalar.summary().deterministic_dict(), sort_keys=True
    )
    vector_payload = json.dumps(
        vector.summary().deterministic_dict(), sort_keys=True
    )
    assert scalar_payload == vector_payload, "kernel parity violated"

    print(f"scenario           : {SCENARIO} ({SAMPLES} control periods)")
    print(f"scalar kernel      : {scalar_seconds:.2f}s")
    print(f"vector kernel      : {vector_seconds:.2f}s")
    print(f"speedup            : {scalar_seconds / vector_seconds:.2f}x")
    print("deterministic JSON : identical byte-for-byte")
    summary = vector.summary()
    print(
        f"summary            : mean r = {summary.mean_response:.2f}s, "
        f"energy = {summary.total_energy:.0f}"
    )


if __name__ == "__main__":
    main()
