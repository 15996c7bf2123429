"""VAL1 — fluid model versus request-level discrete-event simulation.

The paper's MATLAB evaluation simulates the fluid difference model
(eqs. 5-7). Our plant additionally has an exact FCFS discrete-event
backend fed by the §4.3 virtual store (10,000 objects, Zipf popularity,
U(10, 25) ms service times). This bench validates that the fluid plant
tracks the DES on throughput and mean response under identical settings —
the evidence that fluid-mode benchmark results carry over to
request-level behaviour.
"""

import numpy as np

from repro.cluster import Computer, ComputerSpec, processor_profile
from repro.workload import ArrivalTrace, RequestStreamGenerator, VirtualStore


def test_fluid_tracks_discrete_event(benchmark, report):
    spec = ComputerSpec(name="C4", processor=processor_profile("c4"))
    store = VirtualStore(seed=0)
    rng = np.random.default_rng(1)
    periods, dt = 120, 30.0
    rate = 40.0  # ~70 % utilisation at max frequency

    counts = rng.poisson(rate * dt, periods).astype(float)
    assert counts.min() > 0  # every bin has requests, hence its own c
    trace = ArrivalTrace(counts, dt)
    generator = RequestStreamGenerator(trace, store=store, seed=2)

    fluid = Computer(spec)
    des = Computer(spec, discrete_event=True)
    freq_index = spec.processor.setting_count - 2  # one below max
    fluid.set_frequency_index(freq_index)
    des.set_frequency_index(freq_index)

    fluid_served = des_served = 0.0
    fluid_resp, des_resp = [], []
    for k in range(periods):
        stream = generator.bin_stream(k)
        result_fluid = fluid.step_fluid(float(stream.count), stream.mean_work, dt)
        des.offer_requests(stream.arrival_times, stream.works)
        result_des = des.step_des(dt)
        fluid_served += result_fluid.served
        des_served += result_des.served
        if not np.isnan(result_fluid.response_time):
            fluid_resp.append(result_fluid.response_time)
        des_resp.extend(result_des.completed_responses)

    throughput_gap = abs(fluid_served - des_served) / max(des_served, 1.0)
    mean_fluid = float(np.mean(fluid_resp))
    mean_des = float(np.mean(des_resp))

    lines = ["VAL1 — fluid plant versus discrete-event plant (C4, rho~0.78)", ""]
    lines.append(f"{'metric':>22} | {'fluid':>10} | {'DES':>10}")
    lines.append("-" * 50)
    lines.append(f"{'requests served':>22} | {fluid_served:>10.0f} | {des_served:>10.0f}")
    lines.append(f"{'mean response (s)':>22} | {mean_fluid:>10.3f} | {mean_des:>10.3f}")
    lines.append("")
    lines.append(
        f"throughput gap {100 * throughput_gap:.2f}% — the fluid abstraction "
        "the paper simulates carries request-level throughput faithfully; "
        "its response estimate is the deterministic (1+q)c/phi form, which "
        "underestimates stochastic FCFS waiting at high utilisation (the "
        "controllers inherit the paper's model, so this bias is shared with "
        "the original evaluation)."
    )
    report("validation_des", "\n".join(lines))

    assert throughput_gap < 0.02
    assert mean_fluid < mean_des * 1.5  # same order; model bias documented

    # Kernel: one fluid plant step (the simulation hot path).
    computer = Computer(spec)
    decision = benchmark(lambda: computer.step_fluid(1200.0, 0.0175, 30.0))
    assert decision.power > 0
