"""Telemetry core: metrics, decision traces, exposition.

Dependency-free observability for every process in the system:

* :class:`MetricsRegistry` — counters, gauges, histograms with P²
  quantile sketches (:mod:`repro.obs.registry`).
* :class:`Tracer` + sinks — decision spans (L2 solve, per-module L1
  lookahead, L0 bank) with zero cost when no sink is attached
  (:mod:`repro.obs.trace`, :mod:`repro.obs.sinks`).
* :func:`render_prometheus` / :class:`ObservabilityHTTPServer` — text
  exposition over ``repro ctl metrics`` and ``GET /metrics``
  (:mod:`repro.obs.exposition`, :mod:`repro.obs.http`).
* :class:`Telemetry` / :class:`TelemetryObserver` — the glue that
  threads all of it through the engine's existing seams
  (:mod:`repro.obs.instrument`).
"""

from repro.obs.exposition import (
    CONTENT_TYPE,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.http import ObservabilityHTTPServer
from repro.obs.instrument import (
    Telemetry,
    TelemetryObserver,
    attach_telemetry,
)
from repro.obs.quantile import P2Quantile
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    METRIC_KINDS,
    MetricsRegistry,
    global_registry,
)
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.trace import SPAN_KINDS, Tracer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "METRIC_KINDS",
    "MemorySink",
    "MetricsRegistry",
    "ObservabilityHTTPServer",
    "P2Quantile",
    "SPAN_KINDS",
    "Telemetry",
    "TelemetryObserver",
    "Tracer",
    "attach_telemetry",
    "global_registry",
    "parse_prometheus_text",
    "render_prometheus",
]
