"""Trained maps as deployment artifacts: warm once, run everywhere.

The hierarchy's offline-learned abstraction maps (the L1 behaviour maps
and L2 module-cost maps) are content-addressed artifacts: a digest of
everything a map's training reads — machine spec, controller
parameters, training-code version — names a JSON file in a cache
directory. Anything that would change the numbers changes the digest,
so cached artifacts can never be stale; the settings only a run reads
(the L1's uncertainty band and its window) stay out, so changing them
still hits the cache.

This example warms a cache for the §5.2 sixteen-computer cluster (nine
distinct artifacts: five machine profiles, four module mixes), then
constructs the simulation twice to show the second construction trains
nothing — and produces bit-identical results.

Run from the repo root:

    PYTHONPATH=src python examples/map_cache_workflow.py

The same workflow from the shell:

    repro train warm paper/fig6-cluster16 --map-cache out/maps --stats
    repro run paper/fig6-cluster16 --map-cache out/maps
    repro train list --map-cache out/maps
"""

import json
import shutil
import tempfile

from repro import MapCache, map_stats, run_scenario, warm_scenario
from repro.maps import reset_map_stats
from repro.maps.provider import clear_map_memo
from repro.scenario import get_scenario


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-maps-")
    scenario = get_scenario("paper/fig6-cluster16", samples=8).with_overrides(
        **{"control.map_cache": cache_dir}
    )

    print("=== warm the cache (cold: every artifact trains) ===")
    reset_map_stats()
    for artifact in warm_scenario(scenario):
        print(f"  {artifact.kind:<8} {artifact.digest[:16]}  {artifact.source}")
    print(f"counters: {json.dumps(map_stats().to_dict())}")

    print()
    print("=== run against the warm cache (zero trainings) ===")
    clear_map_memo()  # simulate a fresh process, e.g. a sweep worker
    reset_map_stats()
    result = run_scenario(scenario)
    print(f"counters: {json.dumps(map_stats().to_dict())}")
    print(f"summary:  {result.summary().deterministic_str()}")

    print()
    print("=== the cache on disk ===")
    for entry in MapCache(cache_dir).entries():
        print(f"  {entry.kind:<8} {entry.digest[:16]}  {entry.description}")

    shutil.rmtree(cache_dir)


if __name__ == "__main__":
    main()
