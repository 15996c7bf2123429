"""Exact FCFS single-server queueing via the departure-time recursion.

For a first-come first-served single server, the departure time of the
n-th request obeys ``d(n) = max(d(n-1), t(n)) + s(n)`` (equivalently the
Lindley waiting-time recursion). :class:`FcfsServer` applies it
incrementally: the simulation engine drives it period by period,
supporting *speed changes* at period boundaries (DVFS) — service demands
are expressed in units of work, and the server drains work at the current
speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.validation import require_non_negative


@dataclass
class CompletedRequest:
    """A request that has left the server."""

    arrival_time: float
    departure_time: float

    @property
    def response_time(self) -> float:
        """Sojourn time: waiting plus service."""
        return self.departure_time - self.arrival_time


class FcfsServer:
    """Incremental FCFS server with DVFS-style speed changes.

    Work is measured in *work units* (seconds of service at speed 1.0).
    The engine calls :meth:`offer` to enqueue arrivals, then
    :meth:`advance` to run the server up to a deadline at a given speed.
    Completed requests are returned from :meth:`advance`.
    """

    def __init__(self) -> None:
        self._pending: deque[list[float]] = deque()  # [arrival_time, work_left]
        self._clock = 0.0

    @property
    def queue_length(self) -> int:
        """Requests currently waiting or in service."""
        return len(self._pending)

    def offer(self, arrival_times: np.ndarray, work_units: np.ndarray) -> None:
        """Enqueue a batch of requests (times must be >= current clock)."""
        arrivals = np.asarray(arrival_times, dtype=float)
        work = np.asarray(work_units, dtype=float)
        if arrivals.shape != work.shape:
            raise ConfigurationError("arrival and work arrays must align")
        if arrivals.size == 0:
            return
        if np.any(np.diff(arrivals) < 0):
            raise ConfigurationError("arrival times must be non-decreasing")
        if self._pending and arrivals[0] < self._pending[-1][0] - 1e-12:
            raise SimulationError("offered arrivals precede queued arrivals")
        if np.any(work < 0):
            raise ConfigurationError("work units must be non-negative")
        for t, w in zip(arrivals, work):
            self._pending.append([float(t), float(w)])

    def advance(self, until: float, speed: float) -> list[CompletedRequest]:
        """Serve queued work at ``speed`` until time ``until``.

        A speed of 0 (machine off/booting) advances the clock without
        serving. Returns requests completed during the interval.
        """
        require_non_negative(speed, "speed")
        if until < self._clock:
            raise SimulationError(
                f"cannot advance backwards: clock={self._clock}, until={until}"
            )
        completed: list[CompletedRequest] = []
        if speed == 0.0:
            self._clock = until
            return completed
        now = self._clock
        while self._pending:
            arrival, work_left = self._pending[0]
            start = arrival if arrival > now else now
            if start >= until:
                break
            finish = start + work_left / speed
            if finish <= until:
                completed.append(CompletedRequest(arrival, finish))
                self._pending.popleft()
                now = finish
            else:
                self._pending[0][1] = work_left - (until - start) * speed
                now = until
                break
        self._clock = until
        return completed
