"""The single gateway through which trained maps are obtained.

Three layers of reuse sit between a request and an actual training run:

1. **Instance sharing** — within one :class:`MapProvider` (one engine
   construction), identical computers share one live map object, like
   the module controller always has (the L1 search memoises lookups by
   map identity).
2. **Process memo** — a module-level ``digest -> artifact payload``
   dict. Repeated simulation constructions in one process rebuild maps
   from the serialised payload instead of retraining. Each rebuild is a
   fresh object, so one caller mutating its map can never leak into
   another run's tables.
3. **Disk cache** — a :class:`~repro.maps.cache.MapCache` of
   digest-addressed JSON artifacts, shared across processes and runs
   (sweep workers, repeated CLI invocations).

Trained-or-loaded makes no numerical difference: ``to_dict`` /
``from_dict`` round-trip every float exactly, so a warm-cache run is
bit-identical to the cold run that populated the cache.
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster.specs import ComputerSpec, ModuleSpec
from repro.controllers.params import L0Params, L1Params
from repro.maps.cache import MapCache
from repro.maps.digest import behavior_map_digest, module_map_digest
from repro.maps.stats import MAP_STATS

#: Process-wide artifact memo: digest -> (kind, description, payload).
#: The kind and description ride along so a cache-equipped provider can
#: back-fill the disk cache from a memo hit (the artifact may have been
#: trained earlier in this process with no cache configured).
_MEMO: "dict[str, tuple[str, str, dict]]" = {}


def clear_map_memo() -> None:
    """Drop the process-wide artifact memo (tests start cold)."""
    _MEMO.clear()


def _resolve_cache(cache) -> "MapCache | None":
    if cache is None or isinstance(cache, MapCache):
        return cache
    if isinstance(cache, (str, Path)):
        return MapCache(cache)
    raise TypeError(
        f"cache must be a MapCache, path, or None, got {type(cache).__name__}"
    )


class MapProvider:
    """Hands out trained maps, training each distinct content once."""

    def __init__(self, cache=None) -> None:
        self.cache = _resolve_cache(cache)
        self._instances: "dict[str, object]" = {}
        self._served: "list[tuple[str, str]]" = []

    @property
    def served(self) -> "tuple[tuple[str, str], ...]":
        """Every distinct ``(kind, digest)`` this provider handed out.

        The provider is the single authority on artifact identity —
        callers reporting what a warm pass touched read it from here
        instead of recomputing digests in parallel.
        """
        return tuple(self._served)

    def _note_served(self, kind: str, digest: str) -> None:
        if (kind, digest) not in self._served:
            self._served.append((kind, digest))

    # ------------------------------------------------------------------
    # Behaviour maps (L1's abstraction of one L0-controlled computer)
    # ------------------------------------------------------------------

    def behavior_map(
        self,
        spec: ComputerSpec,
        l0_params: "L0Params | None" = None,
        l1_period: float = 120.0,
    ):
        """The trained :class:`ComputerBehaviorMap` for one computer."""
        from repro.controllers.l1 import ComputerBehaviorMap

        l0_params = l0_params or L0Params()
        digest = behavior_map_digest(spec, l0_params, l1_period)
        self._note_served("behavior", digest)
        hit = self._instances.get(digest)
        if hit is not None:
            return hit
        payload = self._lookup(digest, "behavior")
        if payload is not None:
            trained = ComputerBehaviorMap.from_dict(payload)
        else:
            trained = ComputerBehaviorMap.train(
                spec, l0_params, l1_period=l1_period
            )
            self._publish(
                digest,
                "behavior",
                trained.to_dict(),
                f"behavior map · {spec.processor.name} · "
                f"{len(trained.table.rows)} cells",
            )
            MAP_STATS.behavior_trainings += 1
            MAP_STATS.sources[digest] = "trained"
        self._instances[digest] = trained
        return trained

    def behavior_maps(
        self,
        module_spec: ModuleSpec,
        l0_params: "L0Params | None" = None,
        l1_params: "L1Params | None" = None,
    ) -> list:
        """One map per computer, instance-shared across identical specs."""
        l1_params = l1_params or L1Params()
        return [
            self.behavior_map(c, l0_params, l1_period=l1_params.period)
            for c in module_spec.computers
        ]

    # ------------------------------------------------------------------
    # Module cost maps (L2's abstraction of one L1-controlled module)
    # ------------------------------------------------------------------

    def module_map(
        self,
        module_spec: ModuleSpec,
        behavior_maps: "list | None" = None,
        l1_params: "L1Params | None" = None,
        l0_params: "L0Params | None" = None,
    ):
        """The trained :class:`ModuleCostMap` for one module."""
        from repro.controllers.l2 import ModuleCostMap

        l1_params = l1_params or L1Params()
        l0_params = l0_params or L0Params()
        digest = module_map_digest(module_spec, l1_params, l0_params)
        self._note_served("module", digest)
        hit = self._instances.get(digest)
        if hit is not None:
            return hit
        payload = self._lookup(digest, "module")
        if payload is not None:
            trained = ModuleCostMap.from_dict(payload)
        else:
            if behavior_maps is None:
                behavior_maps = self.behavior_maps(
                    module_spec, l0_params, l1_params
                )
            trained = ModuleCostMap.train(
                module_spec, behavior_maps, l1_params, l0_params
            )
            self._publish(
                digest,
                "module",
                trained.to_dict(),
                f"module cost map · m={module_spec.size} · "
                f"{ModuleCostMap.training_grid(module_spec).cell_count} cells",
            )
            MAP_STATS.module_trainings += 1
            MAP_STATS.sources[digest] = "trained"
        self._instances[digest] = trained
        return trained

    # ------------------------------------------------------------------
    # The memo/cache ladder
    # ------------------------------------------------------------------

    def _lookup(self, digest: str, kind: str) -> "dict | None":
        memoed = _MEMO.get(digest)
        if memoed is not None:
            _, description, payload = memoed
            MAP_STATS.memo_hits += 1
            MAP_STATS.sources[digest] = "memo"
            # Back-fill the disk cache: the artifact may have been
            # trained earlier in this process without one (e.g. a plain
            # run before `warm_scenario`), and a memo hit must still
            # leave the cache warm for the next process.
            if (
                self.cache is not None
                and not self.cache.path_for(kind, digest).is_file()
            ):
                self.cache.store(kind, digest, payload, description)
            return payload
        if self.cache is not None:
            entry = self.cache.load_entry(kind, digest)
            if entry is not None:
                payload, description = entry
                MAP_STATS.cache_hits += 1
                MAP_STATS.sources[digest] = "cache"
                _MEMO[digest] = (kind, description, payload)
                return payload
            MAP_STATS.cache_misses += 1
        return None

    def _publish(
        self, digest: str, kind: str, payload: dict, description: str
    ) -> None:
        _MEMO[digest] = (kind, description, payload)
        if self.cache is not None:
            self.cache.store(kind, digest, payload, description)
