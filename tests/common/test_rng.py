"""Tests for deterministic RNG plumbing."""

import numpy as np

from repro.common import spawn_rng


class TestSpawnRng:
    def test_from_int_seed_is_deterministic(self):
        a = spawn_rng(7).random(5)
        b = spawn_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(3)
        assert spawn_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(spawn_rng(None), np.random.Generator)
