"""Engine integration with the trained-map artifact layer.

The acceptance contract of the artifact refactor: construction-time
training collapses to one run per distinct map content, warm caches
eliminate it entirely, and none of it changes a single simulated float.
"""

import numpy as np
import pytest

from repro.cluster.processor import processor_profile
from repro.cluster.specs import ClusterSpec, ComputerSpec, ModuleSpec
from repro.maps import MapCache, map_stats, reset_map_stats
from repro.maps.provider import clear_map_memo
from repro.sim.engine import ClusterSimulation, ModuleSimulation
from repro.sim.options import EngineOptions
from repro.workload.trace import ArrivalTrace


@pytest.fixture(autouse=True)
def _fresh_process_state():
    reset_map_stats()
    clear_map_memo()
    yield
    reset_map_stats()
    clear_map_memo()


def _homogeneous_cluster(p: int, m: int = 2) -> ClusterSpec:
    return ClusterSpec(
        name=f"homog-{p}x{m}",
        modules=tuple(
            ModuleSpec(
                name=f"M{i + 1}",
                computers=tuple(
                    ComputerSpec(
                        name=f"M{i + 1}.C{j + 1}",
                        processor=processor_profile("c4"),
                    )
                    for j in range(m)
                ),
            )
            for i in range(p)
        ),
    )


def _trace(steps: int = 8) -> ArrivalTrace:
    return ArrivalTrace(np.full(steps, 90.0), 30.0)


class TestTrainOncePerContent:
    def test_sixteen_homogeneous_modules_train_once(self):
        # The headline O(modules x runs) -> O(distinct specs) claim:
        # sixteen identical modules cost ONE behaviour-map training and
        # ONE module-map training, not sixteen.
        ClusterSimulation(_homogeneous_cluster(16), _trace())
        stats = map_stats()
        assert stats.behavior_trainings == 1
        assert stats.module_trainings == 1

    def test_second_construction_trains_nothing(self):
        spec = _homogeneous_cluster(2)
        ClusterSimulation(spec, _trace())
        first = map_stats().trainings
        ClusterSimulation(spec, _trace())
        assert map_stats().trainings == first


class TestWarmCacheRuns:
    def test_cluster_cold_vs_warm_bit_identical(self, tmp_path):
        spec = _homogeneous_cluster(2)
        options = EngineOptions(warmup_intervals=1)
        cold = ClusterSimulation(
            spec, _trace(), engine_options=options, map_cache=MapCache(tmp_path)
        ).run()
        assert map_stats().trainings > 0

        clear_map_memo()
        reset_map_stats()
        warm = ClusterSimulation(
            spec, _trace(), engine_options=options, map_cache=MapCache(tmp_path)
        ).run()
        assert map_stats().trainings == 0
        assert map_stats().cache_hits > 0
        assert (
            cold.summary().deterministic_dict()
            == warm.summary().deterministic_dict()
        )
        for a, b in zip(cold.module_results, warm.module_results):
            assert np.array_equal(a.responses, b.responses, equal_nan=True)
            assert np.array_equal(a.queues, b.queues)
            assert np.array_equal(a.frequencies, b.frequencies)

    def test_module_simulation_uses_cache(self, tmp_path):
        module = _homogeneous_cluster(1).modules[0]
        options = EngineOptions(warmup_intervals=1)
        cold = ModuleSimulation(
            module, _trace(), engine_options=options, map_cache=str(tmp_path)
        ).run()
        assert map_stats().behavior_trainings == 1

        clear_map_memo()
        reset_map_stats()
        warm = ModuleSimulation(
            module, _trace(), engine_options=options, map_cache=str(tmp_path)
        ).run()
        assert map_stats().trainings == 0
        assert (
            cold.summary().deterministic_dict()
            == warm.summary().deterministic_dict()
        )
