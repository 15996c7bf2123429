"""Trained-map artifact layer: offline training, caching, shipping.

The paper's hierarchy rests on offline-learned abstraction maps — the
per-computer behaviour maps the L1 controller searches over (§4.2) and
the per-module cost maps the L2 controller queries (§5.1). This package
treats those maps as first-class deployment artifacts:

* each map's ``train`` runs its offline training grid through one grid
  function, which advances every cell in lockstep, and builds the map
  from the returned array (a dense table for a behaviour map, two
  regression trees fitted on its columns for a module map);
* :mod:`~repro.maps.digest` gives every trained map a canonical content
  digest (spec + the parameters training reads + training-code version);
* :class:`MapCache` stores artifacts content-addressed on disk
  (``~/.cache/repro-maps``, ``$REPRO_MAP_CACHE``, or ``--map-cache``);
* :class:`MapProvider` is the gateway the engines and the sweep
  executor obtain maps through — each distinct content trains once per
  cache, however many modules, runs, or worker processes consume it;
* :mod:`~repro.maps.stats` counts trainings and cache traffic
  (``repro train --stats``).
"""

from repro.maps.cache import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    CacheEntry,
    MapCache,
    resolve_cache_dir,
)
from repro.maps.digest import (
    MAPS_SCHEMA_VERSION,
    behavior_map_digest,
    module_map_digest,
)
from repro.maps.provider import MapProvider, clear_map_memo
from repro.maps.stats import MAP_STATS, MapStats, map_stats, reset_map_stats

__all__ = [
    "CACHE_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "MAPS_SCHEMA_VERSION",
    "MAP_STATS",
    "CacheEntry",
    "MapCache",
    "MapProvider",
    "MapStats",
    "behavior_map_digest",
    "clear_map_memo",
    "map_stats",
    "module_map_digest",
    "reset_map_stats",
    "resolve_cache_dir",
]
