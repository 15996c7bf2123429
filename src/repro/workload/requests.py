"""Request-level stream generation from an arrival trace.

Couples an :class:`~repro.workload.trace.ArrivalTrace` (how many requests
arrive in each bin) with the virtual store (which objects they touch,
hence their processing demand). Produces per-bin batches for the
discrete-event plant. Each request draws its object independently from
the store's popularity: the streams carry no temporal locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import spawn_rng
from repro.workload.store import VirtualStore
from repro.workload.trace import ArrivalTrace


@dataclass(frozen=True)
class RequestStream:
    """One bin's worth of request-level arrivals."""

    arrival_times: np.ndarray  # absolute seconds, sorted
    works: np.ndarray  # full-speed processing times (s)

    @property
    def count(self) -> int:
        """Number of requests in the bin."""
        return self.arrival_times.size

    @property
    def mean_work(self) -> float:
        """Average processing demand of this bin (the paper's c)."""
        return float(self.works.mean()) if self.works.size else 0.0


class RequestStreamGenerator:
    """Materialises an arrival trace's bins as request-level batches.

    Arrival instants within a bin are uniform (the trace already carries
    the coarse-scale structure; within-bin placement is second-order for
    30-second bins).
    """

    def __init__(
        self,
        trace: ArrivalTrace,
        store: VirtualStore | None = None,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        self.trace = trace
        self.store = store or VirtualStore(seed=seed)
        self._rng = spawn_rng(seed)

    def bin_stream(self, bin_index: int) -> RequestStream:
        """Materialise the request batch for one trace bin."""
        count = int(round(float(self.trace.counts[bin_index])))
        start = bin_index * self.trace.bin_seconds
        if count <= 0:
            return RequestStream(np.zeros(0), np.zeros(0))
        times = np.sort(
            self._rng.uniform(start, start + self.trace.bin_seconds, count)
        )
        works = self.store.work_of(self.store.sample_objects(count, self._rng))
        return RequestStream(arrival_times=times, works=works)
