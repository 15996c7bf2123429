"""Process-wide counters for map training and cache traffic.

The acceptance criterion behind the whole artifact layer — "a 16-module
homogeneous cluster performs exactly one behaviour-map training" — is
only checkable if trainings are counted somewhere global. The counters
here are incremented by the provider (:mod:`repro.maps.provider`) and
read by tests and the ``repro train --stats`` CLI. They are plain
per-process tallies: worker processes keep their own (a sweep worker
that performs zero trainings reports zero *in that process*).

Since the telemetry core landed, the tallies are *backed by* the global
:class:`~repro.obs.registry.MetricsRegistry` — every increment through
the historical ``MAP_STATS.behavior_trainings += 1`` style lands in
``repro_map_trainings_total{kind=...}`` / ``repro_map_cache_lookups_total``
/ ``repro_map_memo_hits_total`` and shows up on ``/metrics``.
"""

from __future__ import annotations

from repro.obs.registry import global_registry


class _RegistryCounter:
    """An int-like attribute backed by a global-registry counter.

    ``__get__`` reads the counter's current value as an ``int``;
    ``__set__`` supports both the historical ``stats.cache_hits += 1``
    (read-modify-write) and outright assignment (``= 0`` in resets).
    """

    def __init__(self, name: str, help_text: str, **labels) -> None:
        self._name = name
        self._help = help_text
        self._labels = labels

    def _counter(self):
        return global_registry().counter(self._name, self._help, **self._labels)

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return int(self._counter().value)

    def __set__(self, instance, value) -> None:
        counter = self._counter()
        counter.value = float(value)


class MapStats:
    """Tallies of what the provider did in this process.

    Attribute reads/writes proxy to the global metrics registry; see
    the module docstring. ``sources`` stays a plain dict, keyed
    ``digest -> "trained" | "cache" | "memo"`` (last source wins).
    """

    #: Full offline trainings actually executed, per artifact kind.
    behavior_trainings = _RegistryCounter(
        "repro_map_trainings_total",
        "Offline map trainings executed.",
        kind="behavior",
    )
    module_trainings = _RegistryCounter(
        "repro_map_trainings_total",
        "Offline map trainings executed.",
        kind="module",
    )
    #: Artifacts served from the on-disk content-addressed cache.
    cache_hits = _RegistryCounter(
        "repro_map_cache_lookups_total",
        "Disk-cache lookups by the map provider.",
        result="hit",
    )
    #: Disk-cache lookups that found nothing (training followed).
    cache_misses = _RegistryCounter(
        "repro_map_cache_lookups_total",
        "Disk-cache lookups by the map provider.",
        result="miss",
    )
    #: Artifacts served from the in-process memo (no disk, no training).
    memo_hits = _RegistryCounter(
        "repro_map_memo_hits_total",
        "Artifacts served from the in-process memo.",
    )
    def __init__(self) -> None:
        #: Per-digest tallies of how each artifact was obtained.
        self.sources: dict = {}

    @property
    def trainings(self) -> int:
        """Total offline trainings executed (both kinds)."""
        return self.behavior_trainings + self.module_trainings

    def to_dict(self) -> dict:
        """JSON-safe counter snapshot (the ``--stats`` payload)."""
        return {
            "behavior_trainings": self.behavior_trainings,
            "module_trainings": self.module_trainings,
            "trainings": self.trainings,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "memo_hits": self.memo_hits,
        }

    def reset(self) -> None:
        """Zero every counter (tests and CLI invocations start clean)."""
        self.behavior_trainings = 0
        self.module_trainings = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.memo_hits = 0
        self.sources = {}


#: The process-wide instance. Import and read it, or go through
#: :func:`map_stats` / :func:`reset_map_stats` for discoverability.
MAP_STATS = MapStats()


def map_stats() -> MapStats:
    """The process-wide training/cache counters."""
    return MAP_STATS


def reset_map_stats() -> None:
    """Zero the process-wide counters."""
    MAP_STATS.reset()
