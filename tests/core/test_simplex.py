"""Tests for quantised simplex utilities."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.core import (
    enumerate_simplex,
    quantize_to_simplex,
    simplex_levels,
    simplex_neighbors,
)


class TestEnumerateSimplex:
    def test_count_matches_stars_and_bars(self):
        # Four modules at step 0.1 -> C(10 + 3, 3) = 286 (the L2 space).
        vectors = list(enumerate_simplex(4, 0.1))
        assert len(vectors) == comb(13, 3) == 286

    def test_all_sum_to_one(self):
        for gamma in enumerate_simplex(3, 0.25):
            assert gamma.sum() == pytest.approx(1.0)
            assert np.all(gamma >= 0)

    def test_one_dimension(self):
        vectors = list(enumerate_simplex(1, 0.05))
        assert len(vectors) == 1
        assert vectors[0][0] == pytest.approx(1.0)

    def test_no_duplicates(self):
        seen = {tuple(np.rint(g * 20).astype(int)) for g in enumerate_simplex(3, 0.05)}
        assert len(seen) == comb(20 + 2, 2)

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            list(enumerate_simplex(2, 0.3))

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ConfigurationError):
            list(enumerate_simplex(0, 0.5))


class TestQuantizeToSimplex:
    def test_already_quantised_unchanged(self):
        gamma = np.array([0.25, 0.75])
        assert np.allclose(quantize_to_simplex(gamma, 0.05), gamma)

    def test_normalises_unnormalised_weights(self):
        out = quantize_to_simplex(np.array([2.0, 2.0]), 0.1)
        assert np.allclose(out, [0.5, 0.5])

    def test_zero_weights_spread_evenly(self):
        out = quantize_to_simplex(np.zeros(4), 0.05)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            quantize_to_simplex(np.array([-1.0, 2.0]), 0.1)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8),
        st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]),
    )
    def test_always_on_quantised_simplex(self, weights, step):
        out = quantize_to_simplex(np.asarray(weights), step)
        assert out.sum() == pytest.approx(1.0)
        quanta = out / step
        assert np.allclose(quanta, np.rint(quanta))

    def test_within_one_quantum_of_input(self):
        w = np.array([0.33, 0.33, 0.34])
        out = quantize_to_simplex(w, 0.05)
        assert np.all(np.abs(out - w) <= 0.05 + 1e-9)


class TestSimplexNeighbors:
    def test_neighbors_stay_on_simplex(self):
        gamma = np.array([0.5, 0.5])
        for neighbor in simplex_neighbors(gamma, 0.05):
            assert neighbor.sum() == pytest.approx(1.0)
            assert np.all(neighbor >= 0)

    def test_single_move_count(self):
        # n*(n-1) ordered pairs, minus moves from zero entries.
        gamma = np.array([0.5, 0.5, 0.0])
        neighbors = list(simplex_neighbors(gamma, 0.05, moves=1))
        assert len(neighbors) == 4  # two positive sources x two targets

    def test_two_quantum_moves(self):
        gamma = np.array([1.0, 0.0])
        neighbors = list(simplex_neighbors(gamma, 0.5, moves=2))
        sums = {tuple(n) for n in neighbors}
        assert (0.5, 0.5) in sums
        assert (0.0, 1.0) in sums

    def test_rejects_off_simplex_input(self):
        with pytest.raises(ConfigurationError):
            list(simplex_neighbors(np.array([0.5, 0.4]), 0.05))

    def test_neighbors_differ_from_origin(self):
        gamma = np.array([0.6, 0.4])
        for neighbor in simplex_neighbors(gamma, 0.1):
            assert not np.allclose(neighbor, gamma)


class TestSimplexLevels:
    @pytest.mark.parametrize("step", [0.1, 0.05, 0.2, 0.25, 1.0 / 3.0])
    def test_entries_of_every_generator_are_levels_bit_for_bit(self, step):
        levels = simplex_levels(step)
        k = levels.size - 1
        vectors = list(enumerate_simplex(3, step))
        vectors.append(quantize_to_simplex(np.array([0.31, 0.5, 0.19]), step))
        vectors.extend(simplex_neighbors(vectors[-1], step, moves=2))
        for vector in vectors:
            quanta = np.rint(vector * k).astype(int)
            assert levels[quanta].tobytes() == vector.tobytes()

    def test_count_and_range(self):
        levels = simplex_levels(0.1)
        assert levels.size == 11
        assert levels[0] == 0.0 and levels[-1] == 1.0

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            simplex_levels(0.3)


class TestQuantizeRejects:
    def test_an_empty_or_nested_weight_vector(self):
        with pytest.raises(ConfigurationError, match="non-empty vector"):
            quantize_to_simplex(np.zeros(0), 0.1)
        with pytest.raises(ConfigurationError, match="non-empty vector"):
            quantize_to_simplex(np.ones((2, 2)), 0.1)
