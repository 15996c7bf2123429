"""Host-speed calibration: a fixed CPU kernel timed next to measured work.

The benchmark's host is a few cores of a shared machine whose speed
swings by up to 2x over seconds to minutes, and the simulator slows
with it. A run therefore times this kernel between chunks of measured
work and divides each chunk's wall time by the kernel's time around it.
The kernel is the benchmark's own code, so a change to the program
moves the measured work and not the kernel.

Timings are reported in *calibrated seconds*: wall seconds scaled so
that one kernel call takes ``REFERENCE_S``. On a host where the kernel
takes exactly ``REFERENCE_S``, calibrated and wall seconds agree.
On a 2-core Xeon VM, dividing the simulator's 0.2-0.4 s chunks by the
kernel cut the spread of 10-second buckets from 16-23 % to 4-7 %.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time, in wall seconds, that one calibrated second stands for.
REFERENCE_S = 0.005
#: Calibration samples on each side of a chunk that scale its time.
WINDOW = 2


def kernel() -> float:
    """Fixed interpreter-bound work: float arithmetic, dict and list stores."""
    total = 0.0
    table: dict = {}
    for i in range(25000):
        total += (i * 1.5) % 7.0
        table[i & 4095] = [total]
    return total


def sample() -> float:
    """Wall seconds of one kernel call."""
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


def chunk_scales(samples: "list[float]") -> "list[float]":
    """Wall -> calibrated factor for each chunk between ``samples``.

    ``samples[i]`` is taken before chunk ``i`` and ``samples[i + 1]``
    after it; chunk ``i`` is scaled by the median of the ``WINDOW``
    samples on each side of it, so one disturbed sample moves nothing.
    """
    return [
        REFERENCE_S
        / statistics.median(samples[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(samples) - 1)
    ]
