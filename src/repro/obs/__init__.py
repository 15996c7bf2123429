"""Telemetry core: metrics, decision traces, exposition.

Dependency-free observability for every process in the system:

* :class:`MetricsRegistry` — counters, gauges, histograms with P²
  quantile sketches (:mod:`repro.obs.registry`).
* :class:`Tracer` + sinks — decision spans (L2 solve, per-module L1
  lookahead, L0 bank) with zero cost when no sink is attached
  (:mod:`repro.obs.trace`, :mod:`repro.obs.sinks`).
* :func:`render_prometheus` — text exposition over ``repro ctl
  metrics`` and ``GET /metrics`` (:mod:`repro.obs.exposition`).
* ``repro.obs.http.ObservabilityHTTPServer`` — the asyncio listener
  behind ``repro serve --http-port``, imported from
  :mod:`repro.obs.http` by name (this package does not load asyncio).
* :class:`Telemetry` / :class:`TelemetryObserver` — the glue that
  threads all of it through the engine's existing seams
  (:mod:`repro.obs.instrument`).
"""

from repro.obs.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.instrument import Telemetry, TelemetryObserver
from repro.obs.quantile import P2Quantile
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.sinks import JsonlSink
from repro.obs.trace import Tracer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "P2Quantile",
    "Telemetry",
    "TelemetryObserver",
    "Tracer",
    "global_registry",
    "render_prometheus",
]
