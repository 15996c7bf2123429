"""MapProvider: train-once semantics, memo/cache ladder, isolation."""

import pytest

from repro.cluster.processor import processor_profile
from repro.cluster.specs import ComputerSpec, ModuleSpec
from repro.controllers.params import L0Params, L1Params
from repro.maps import MapCache, MapProvider, map_stats, reset_map_stats
from repro.maps.provider import clear_map_memo


@pytest.fixture(autouse=True)
def _fresh_process_state():
    reset_map_stats()
    clear_map_memo()
    yield
    reset_map_stats()
    clear_map_memo()


def _computer(name: str = "C1") -> ComputerSpec:
    return ComputerSpec(name=name, processor=processor_profile("c1"))


def _module(size: int = 2, name: str = "M1") -> ModuleSpec:
    return ModuleSpec(
        name=name,
        computers=tuple(_computer(f"{name}.C{j}") for j in range(size)),
    )


class TestInstanceSharing:
    def test_identical_computers_share_one_map(self):
        provider = MapProvider()
        maps = provider.behavior_maps(_module(3), L0Params(), L1Params())
        assert maps[0] is maps[1] is maps[2]
        assert map_stats().behavior_trainings == 1

    def test_distinct_computers_train_separately(self):
        module = ModuleSpec(
            "M1",
            (
                ComputerSpec("C1", processor_profile("c1")),
                ComputerSpec("C2", processor_profile("c2")),
            ),
        )
        provider = MapProvider()
        maps = provider.behavior_maps(module, L0Params(), L1Params())
        assert maps[0] is not maps[1]
        assert map_stats().behavior_trainings == 2


class TestProcessMemo:
    def test_second_provider_reuses_without_training(self):
        MapProvider().behavior_map(_computer())
        assert map_stats().behavior_trainings == 1
        fresh = MapProvider().behavior_map(_computer())
        stats = map_stats()
        assert stats.behavior_trainings == 1
        assert stats.memo_hits == 1
        assert len(fresh.table.rows) == 360

    def test_memo_rebuilds_fresh_instances(self):
        # One run's map must never leak into the next run's tables: the
        # tables are read-only, and a second provider gets a distinct,
        # equal instance.
        first = MapProvider().behavior_map(_computer())
        with pytest.raises(ValueError):
            first.table.rows[1] = (999.0, 999.0)
        second = MapProvider().behavior_map(_computer())
        assert second is not first and second.table is not first.table
        assert second.table.rows.tobytes() == first.table.rows.tobytes()

    def test_memoed_map_is_numerically_identical(self):
        trained = MapProvider().behavior_map(_computer())
        rebuilt = MapProvider().behavior_map(_computer())
        assert rebuilt.table.rows.tobytes() == trained.table.rows.tobytes()


class TestDiskCache:
    def test_cold_then_warm(self, tmp_path):
        cache = MapCache(tmp_path)
        MapProvider(cache=cache).behavior_map(_computer())
        assert map_stats().behavior_trainings == 1
        assert map_stats().cache_misses == 1
        assert len(cache.entries()) == 1

        clear_map_memo()
        reset_map_stats()
        warm = MapProvider(cache=cache).behavior_map(_computer())
        stats = map_stats()
        assert stats.behavior_trainings == 0
        assert stats.cache_hits == 1
        assert len(warm.table.rows) == 360

    def test_memo_hit_backfills_an_empty_cache(self, tmp_path):
        # Train with no cache (memo only), then warm a cache in the
        # same process: the memo hit must still land the artifact on
        # disk, or the next process would retrain everything.
        MapProvider().behavior_map(_computer())
        cache = MapCache(tmp_path)
        MapProvider(cache=cache).behavior_map(_computer())
        assert len(cache.entries()) == 1
        assert map_stats().behavior_trainings == 1  # never retrained

        clear_map_memo()
        reset_map_stats()
        MapProvider(cache=cache).behavior_map(_computer())
        assert map_stats().trainings == 0
        assert map_stats().cache_hits == 1

    def test_cache_accepts_plain_paths(self, tmp_path):
        MapProvider(cache=str(tmp_path)).behavior_map(_computer())
        assert len(MapCache(tmp_path).entries()) == 1

    def test_warm_map_is_bitwise_equal_to_trained(self, tmp_path):
        cache = MapCache(tmp_path)
        trained = MapProvider(cache=cache).behavior_map(_computer())
        clear_map_memo()
        loaded = MapProvider(cache=cache).behavior_map(_computer())
        assert loaded.table.rows.tobytes() == trained.table.rows.tobytes()
        assert loaded.substeps == trained.substeps
        assert loaded.l0_params == trained.l0_params

    def test_module_map_cold_then_warm(self, tmp_path):
        cache = MapCache(tmp_path)
        module = _module(1)
        provider = MapProvider(cache=cache)
        maps = provider.behavior_maps(module, L0Params(), L1Params())
        trained = provider.module_map(module, maps, L1Params(), L0Params())
        assert map_stats().module_trainings == 1

        clear_map_memo()
        reset_map_stats()
        loaded = MapProvider(cache=cache).module_map(
            module, None, L1Params(), L0Params()
        )
        stats = map_stats()
        assert stats.module_trainings == 0
        assert stats.behavior_trainings == 0  # loading skips map deps too
        assert loaded.cost_tree.to_dict() == trained.cost_tree.to_dict()
        assert loaded.queue_tree.to_dict() == trained.queue_tree.to_dict()

    def test_homogeneous_modules_share_module_map(self):
        provider = MapProvider()
        first = provider.module_map(_module(1, "M1"))
        second = provider.module_map(_module(1, "M2"))
        assert first is second
        assert map_stats().module_trainings == 1
