"""Tests for the exact FCFS server."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mm1_mean_response_time

from repro.common import ConfigurationError, SimulationError
from repro.queueing import FcfsServer


def _served(arrivals, work, speed=1.0):
    """Response times of one batch served to completion at ``speed``."""
    server = FcfsServer()
    server.offer(np.asarray(arrivals, dtype=float), np.asarray(work, dtype=float))
    return np.array([r.response_time for r in server.advance(until=1e9, speed=speed)])


class TestFcfsBatch:
    """A whole trace through the server obeys the departure recursion."""

    def test_idle_server_response_is_service_time(self):
        assert np.allclose(_served([0.0, 100.0], [2.0, 3.0]), [2.0, 3.0])

    def test_back_to_back_requests_queue(self):
        assert np.allclose(_served([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])

    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(ConfigurationError):
            FcfsServer().offer(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    def test_rejects_negative_work(self):
        with pytest.raises(ConfigurationError):
            FcfsServer().offer(np.array([0.0]), np.array([-1.0]))

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            FcfsServer().offer(np.array([0.0, 1.0]), np.array([1.0]))

    def test_empty_offer_queues_nothing(self):
        server = FcfsServer()
        server.offer(np.array([]), np.array([]))
        assert server.queue_length == 0
        assert server.advance(until=5.0, speed=1.0) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
        st.data(),
    )
    def test_response_at_least_service(self, gaps, data):
        arrivals = np.cumsum(gaps)
        services = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=5.0),
                    min_size=len(gaps),
                    max_size=len(gaps),
                )
            )
        )
        out = _served(arrivals, services)
        assert out.shape == services.shape
        assert np.all(out >= services - 1e-12)

    def test_matches_mm1_statistically(self):
        rng = np.random.default_rng(0)
        lam, mu, n = 50.0, 80.0, 60000
        arrivals = np.cumsum(rng.exponential(1 / lam, n))
        services = rng.exponential(1 / mu, n)
        mean_measured = _served(arrivals, services).mean()
        mean_analytic = mm1_mean_response_time(lam, mu)
        assert mean_measured == pytest.approx(mean_analytic, rel=0.1)


class TestFcfsServer:
    def test_single_request_completes(self):
        server = FcfsServer()
        server.offer(np.array([1.0]), np.array([2.0]))
        done = server.advance(until=10.0, speed=1.0)
        assert len(done) == 1
        assert done[0].response_time == pytest.approx(2.0)

    def test_speed_scales_service(self):
        server = FcfsServer()
        server.offer(np.array([0.0]), np.array([2.0]))
        done = server.advance(until=10.0, speed=2.0)
        assert done[0].response_time == pytest.approx(1.0)

    def test_zero_speed_serves_nothing(self):
        server = FcfsServer()
        server.offer(np.array([0.0]), np.array([1.0]))
        assert server.advance(until=5.0, speed=0.0) == []
        assert server.queue_length == 1

    def test_a_later_arrival_waits_for_its_time(self):
        server = FcfsServer()
        server.offer(np.array([10.0]), np.array([1.0]))
        assert server.advance(until=5.0, speed=1.0) == []
        assert server.queue_length == 1
        (done,) = server.advance(until=20.0, speed=1.0)
        assert (done.arrival_time, done.departure_time) == (10.0, 11.0)

    def test_partial_service_carries_over(self):
        server = FcfsServer()
        server.offer(np.array([0.0]), np.array([10.0]))
        assert server.advance(until=4.0, speed=1.0) == []
        assert server.queue_length == 1
        done = server.advance(until=20.0, speed=1.0)
        assert done[0].departure_time == pytest.approx(10.0)

    def test_speed_change_mid_request(self):
        server = FcfsServer()
        server.offer(np.array([0.0]), np.array([10.0]))
        server.advance(until=5.0, speed=1.0)  # 5 units done
        done = server.advance(until=10.0, speed=2.0)  # 5 left at speed 2
        assert done[0].departure_time == pytest.approx(7.5)

    def test_fcfs_order_preserved(self):
        server = FcfsServer()
        server.offer(np.array([0.0, 0.1, 0.2]), np.array([1.0, 1.0, 1.0]))
        done = server.advance(until=10.0, speed=1.0)
        departures = [r.departure_time for r in done]
        assert departures == sorted(departures)
        assert len(done) == 3

    def test_cannot_advance_backwards(self):
        server = FcfsServer()
        server.advance(until=5.0, speed=1.0)
        with pytest.raises(SimulationError):
            server.advance(until=4.0, speed=1.0)

    def test_out_of_order_offer_rejected(self):
        server = FcfsServer()
        server.offer(np.array([5.0]), np.array([1.0]))
        with pytest.raises(SimulationError):
            server.offer(np.array([1.0]), np.array([1.0]))

    def test_matches_batch_recursion(self):
        rng = np.random.default_rng(1)
        arrivals = np.cumsum(rng.exponential(0.1, 200))
        work = rng.uniform(0.01, 0.2, 200)
        # d(n) = max(d(n-1), t(n)) + s(n), the Lindley departure recursion.
        departures, previous = [], -np.inf
        for t, w in zip(arrivals, work):
            previous = max(previous, t) + w
            departures.append(previous)
        expected = np.array(departures) - arrivals

        server = FcfsServer()
        server.offer(arrivals, work)
        done = server.advance(until=1e9, speed=1.0)
        measured = np.array([r.response_time for r in done])
        assert np.allclose(measured, expected)

    def test_interleaved_offers_and_advances(self):
        server = FcfsServer()
        server.offer(np.array([0.0]), np.array([1.0]))
        server.advance(until=0.5, speed=1.0)
        server.offer(np.array([0.6]), np.array([1.0]))
        done = server.advance(until=10.0, speed=1.0)
        assert len(done) == 2
        # First finishes at 1.0, second starts at max(1.0, 0.6) = 1.0.
        assert done[1].departure_time == pytest.approx(2.0)


class TestAgainstFluidModel:
    def test_fluid_tracks_des_mean_queue_under_heavy_load(self):
        """The fluid model should approximate DES queue growth when busy."""
        rng = np.random.default_rng(2)
        lam, work_mean, speed = 100.0, 0.02, 1.0  # rho = 2.0 (overload)
        horizon = 30.0
        n = int(lam * horizon)
        arrivals = np.sort(rng.uniform(0, horizon, n))
        work = np.full(n, work_mean)
        server = FcfsServer()
        server.offer(arrivals, work)
        server.advance(until=horizon, speed=speed)
        fluid_growth = (lam - speed / work_mean) * horizon
        assert server.queue_length == pytest.approx(fluid_growth, rel=0.15)
