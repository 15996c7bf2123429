"""The metrics core: counters, gauges, histograms, and their registry.

Dependency-free by design (the standard library only): every process in
the system — batch runs, sweep workers, the live-service daemon — holds
a :class:`MetricsRegistry` without importing anything heavier than
:mod:`repro.common.errors`. Handles are get-or-create, so
instrumentation sites can ask for a metric by name without coordinating
construction, and repeated lookups return the same object. The text
exposition (:mod:`repro.obs.exposition`) renders a registry for
``GET /metrics`` and ``repro ctl metrics``.
"""

from __future__ import annotations

import re
import threading

from repro.common.errors import ConfigurationError
from repro.obs.quantile import P2Quantile

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only increase; got inc({amount!r})"
            )
        self.value += float(amount)


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution: exact count and sum, P² quantile sketches.

    The per-quantile P² sketches give live percentile reads without
    buffering the samples; ``count`` and ``sum`` are exact.
    """

    QUANTILES = (0.5, 0.9, 0.99)

    __slots__ = ("count", "sum", "sketches")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.sketches = {q: P2Quantile(q) for q in self.QUANTILES}

    def observe(self, x: float) -> None:
        x = float(x)
        self.count += 1
        self.sum += x
        for sketch in self.sketches.values():
            sketch.observe(x)


class _Family:
    """Every series (label combination) of one metric name."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: "dict[tuple, object]" = {}


def _label_key(labels: dict) -> tuple:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ConfigurationError(f"bad label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create metric handles, keyed by (name, labels).

    Thread-safe for handle creation (the live daemon's control server
    and supervisor share one registry); the handles themselves are
    plain attributes — float stores are atomic enough for telemetry.
    """

    def __init__(self) -> None:
        self._families: "dict[str, _Family]" = {}
        self._lock = threading.Lock()

    def _metric(self, kind: str, name: str, help: str, labels: dict, factory):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"bad metric name {name!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}"
                )
            if help and not family.help:
                family.help = help
            metric = family.series.get(key)
            if metric is None:
                metric = factory()
                family.series[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._metric("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._metric("gauge", name, help, labels, Gauge)

    def histogram(self, name: str, help: str = "", **labels) -> Histogram:
        return self._metric("histogram", name, help, labels, Histogram)

    def families(self) -> "list[_Family]":
        """Every family, sorted by name (the exposition order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]


_GLOBAL_REGISTRY: "MetricsRegistry | None" = None
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (map stats, sweeps, the live daemon)."""
    global _GLOBAL_REGISTRY
    if _GLOBAL_REGISTRY is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_REGISTRY is None:
                _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
